"""Constructors for the benchmark target states.

All constructors return normalized qubit states with compact bond
dimensions: phase-decorated W states (D = 2), the open-chain cluster state
(D = 2), nearest-neighbor singlet coverings (D alternating 2, 1), and
random states with a prescribed maximal bond dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .mps import MatrixProductState, _gaussian_chain

_KINDS = ("W", "Cluster", "Dimer", "Random")


@dataclass
class TargetSpec:
    """Declarative description of a target state, usable from config files."""

    kind: str
    n_sites: int
    theta: float = 0.0
    d_max: int = 1
    seed: int = 0

    def __post_init__(self):
        kind = self.kind.capitalize()
        if kind not in _KINDS:
            raise ParameterError(f"unknown target kind {self.kind!r}")
        self.kind = kind
        if self.n_sites < 2:
            raise ParameterError("target needs at least 2 sites")
        if kind == "Dimer" and self.n_sites % 2:
            raise ParameterError("dimer covering needs an even number of sites")
        if not np.isfinite(self.theta):
            raise ParameterError("theta must be finite")
        if self.d_max < 1:
            raise ParameterError("d_max must be >= 1")
        if self.seed < 0:
            raise ParameterError(f"target seed must be a non-negative integer, got {self.seed}")


def build_target(spec: TargetSpec) -> MatrixProductState:
    if spec.kind == "W":
        return w_state(spec.n_sites, spec.theta)
    if spec.kind == "Cluster":
        return cluster_state(spec.n_sites)
    if spec.kind == "Dimer":
        return dimer_state(spec.n_sites)
    return random_target(spec.n_sites, spec.d_max, spec.seed)


def w_state(n_sites, theta=0.0) -> MatrixProductState:
    """Phase-decorated W state, sum_k e^{i k theta} |0..1_k..0> / sqrt(N).

    The site carrying the excitation is counted from 1, and the overall
    1/sqrt(N) makes the state a unit vector.
    """
    if n_sites < 2:
        raise ParameterError("W state needs at least 2 sites")
    tensors = []
    first = np.zeros((1, 2, 2), dtype=complex)
    first[0, 0, 0] = 1.0
    first[0, 1, 1] = np.exp(1j * theta)
    tensors.append(first / np.sqrt(n_sites))
    for k in range(2, n_sites):
        t = np.zeros((2, 2, 2), dtype=complex)
        t[0, 0, 0] = 1.0
        t[1, 0, 1] = 1.0
        t[0, 1, 1] = np.exp(1j * k * theta)
        tensors.append(t)
    last = np.zeros((2, 2, 1), dtype=complex)
    last[1, 0, 0] = 1.0
    last[0, 1, 0] = np.exp(1j * n_sites * theta)
    tensors.append(last)
    return MatrixProductState(tensors)


def cluster_state(n_sites) -> MatrixProductState:
    """Open-boundary 1D cluster state: CZ on every adjacent pair of |+>^N.

    Amplitudes are 2^{-N/2} prod_j (-1)^{v_j v_{j+1}}, realized with bond
    dimension 2 by carrying the previous bit on the virtual index.
    """
    if n_sites < 2:
        raise ParameterError("cluster state needs at least 2 sites")
    s = 1.0 / np.sqrt(2.0)
    first = np.zeros((1, 2, 2), dtype=complex)
    for v in range(2):
        first[0, v, v] = s
    tensors = [first]
    for _ in range(n_sites - 2):
        t = np.zeros((2, 2, 2), dtype=complex)
        for a in range(2):
            for v in range(2):
                t[a, v, v] = s * (-1.0) ** (a * v)
        tensors.append(t)
    last = np.zeros((2, 2, 1), dtype=complex)
    for a in range(2):
        for v in range(2):
            last[a, v, 0] = s * (-1.0) ** (a * v)
    tensors.append(last)
    return MatrixProductState(tensors)


def dimer_state(n_sites) -> MatrixProductState:
    """Product of singlets (|01> - |10>)/sqrt(2) on pairs (1,2), (3,4), ..."""
    if n_sites < 2 or n_sites % 2:
        raise ParameterError("dimer covering needs an even number of sites >= 2")
    s = 1.0 / np.sqrt(2.0)
    head = np.zeros((1, 2, 2), dtype=complex)
    head[0, 0, 0] = 1.0
    head[0, 1, 1] = 1.0
    tail = np.zeros((2, 2, 1), dtype=complex)
    tail[1, 0, 0] = -s
    tail[0, 1, 0] = s
    return MatrixProductState([head, tail] * (n_sites // 2))


def random_target(n_sites, d_max, seed) -> MatrixProductState:
    """Random state with exact bond profile min(d_max, q^k, q^{N-k}).

    Tensors are drawn i.i.d. complex Gaussian, then canonicalized and
    normalized; the generic draw keeps every bond at full profile dimension.
    Deterministic for a fixed seed.
    """
    if n_sites < 2 or d_max < 1:
        raise ParameterError("need n_sites >= 2 and d_max >= 1")
    return _gaussian_chain(n_sites, 2, d_max, seed)
