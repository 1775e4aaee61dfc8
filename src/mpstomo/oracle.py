"""Dense brute-force references for small systems.

Everything here enumerates the full Hilbert space, so it is only usable at
desk scale; it exists to validate the MPS pipeline (exact outcome
probabilities) and to realize the fixed-basis reconstruction that
certifies informational completeness of the 2N+1 local bases.  The
package does not import it; use ``mpstomo.oracle``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, PartialReconstructionError, ResourceError
from .measurement import check_angles, fixed_bases
from .mps import DENSE_LIMIT, outcome_indices
from .rotations import rotation_matrices

RECONSTRUCTION_FLOOR = 1e-6


@dataclass
class DenseState:
    """Full coefficient vector; index orders site 0 as most significant digit."""

    coefficients: np.ndarray
    n_sites: int
    local_dim: int

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=np.complex128)
        if c.shape != (self.local_dim**self.n_sites,):
            raise ParameterError("coefficient vector has the wrong length")
        nrm = np.linalg.norm(c)
        if abs(nrm - 1.0) > 1e-10:
            raise ParameterError(f"coefficients must be normalized, |c| = {nrm}")
        object.__setattr__(self, "coefficients", c)

    @property
    def spin(self) -> float:
        return (self.local_dim - 1) / 2.0

    @classmethod
    def from_mps(cls, mps) -> "DenseState":
        vec = mps.to_dense()
        vec = vec / np.linalg.norm(vec)
        return cls(vec, mps.n_sites, mps.local_dim)


def _check_size(state):
    if state.local_dim**state.n_sites > DENSE_LIMIT:
        raise ResourceError("state too large for dense evaluation")


def _basis_rotations(state, basis) -> np.ndarray:
    """The (N, q, q) site rotations of ``basis``, a (thetas, phis) pair of
    N angles each, (N,) or (1, N)."""
    thetas, phis = (np.asarray(a, dtype=float).reshape(-1) for a in basis)
    if thetas.shape != (state.n_sites,) or phis.shape != (state.n_sites,):
        raise ParameterError("basis length does not match the state")
    check_angles(thetas, phis)
    return rotation_matrices(thetas, phis, state.spin)


def _rotated_tensor(state, basis) -> np.ndarray:
    """Coefficients in the rotated product basis, as a (q,)*N tensor."""
    us = _basis_rotations(state, basis)
    q, n = state.local_dim, state.n_sites
    t = state.coefficients.reshape((q,) * n)
    for j in range(n):
        t = np.tensordot(us[j], t, axes=(1, j))
        t = np.moveaxis(t, 0, j)
    return t


def dense_probabilities(state, basis) -> np.ndarray:
    """All q**N outcome probabilities for one basis; sums to one."""
    _check_size(state)
    amp = _rotated_tensor(state, basis).reshape(-1)
    return np.abs(amp) ** 2


def dense_probability(state, basis, outcomes) -> float:
    """Probability of one outcome string (magnetic numbers m) in ``basis``."""
    _check_size(state)
    us = _basis_rotations(state, basis)
    idx = outcome_indices(outcomes, state.local_dim)
    if idx.shape != (state.n_sites,):
        raise ParameterError("basis length does not match the state")
    t = state.coefficients.reshape((state.local_dim,) * state.n_sites)
    for j in range(state.n_sites):
        t = np.tensordot(us[j, idx[j], :], t, axes=(0, 0))
    return float(abs(t) ** 2)


# -- fixed-basis reconstruction -------------------------------------------------


def fixed_basis_probabilities(state) -> list[np.ndarray]:
    """Exact outcome tables on the 2N+1 fixed bases, ordered as fixed_bases()."""
    if state.local_dim != 2:
        raise ParameterError("fixed-basis reconstruction is for qubits only")
    return [dense_probabilities(state, b) for b in fixed_bases(state.n_sites)]


def fixed_basis_reconstruct(tables, n_sites) -> DenseState:
    """Rebuild a qubit state from exact probabilities on the fixed bases.

    ``tables`` holds 2N+1 probability vectors of length 2**N in the
    fixed_bases() order: all-z, then x at site k, then y at site k.
    Magnitudes come from the all-z table; each x/y pair determines
    2 c_v^* c_{v + e_k}, whose phase is propagated breadth-first across the
    hypercube from the largest-magnitude vertex.  Vertices with magnitude
    below RECONSTRUCTION_FLOOR count as exact zeros; if the remaining
    coefficient graph is disconnected the relative phases between components
    are undetermined and a PartialReconstructionError lists the components.
    """
    dim = 2**n_sites
    tables = [np.asarray(t, dtype=float) for t in tables]
    if len(tables) != 2 * n_sites + 1 or any(t.shape != (dim,) for t in tables):
        raise ParameterError("expected 2N+1 probability tables of length 2**N")
    mags = np.sqrt(np.maximum(tables[0], 0.0))
    alive = mags >= RECONSTRUCTION_FLOOR
    if not np.any(alive):
        raise ParameterError("all amplitudes below the reconstruction floor")

    def edge_value(v0, k):
        """2 c_{v0}^* c_{v0 + e_k}; v0 must have bit k clear."""
        v1 = v0 | (1 << (n_sites - 1 - k))
        t_x = tables[1 + k][v0] - tables[1 + k][v1]
        t_y = tables[1 + n_sites + k][v0] - tables[1 + n_sites + k][v1]
        return t_x + 1j * t_y

    coeff = np.zeros(dim, dtype=np.complex128)
    seen = np.zeros(dim, dtype=bool)
    order = np.argsort(mags)[::-1]
    components = []
    for seed_vertex in order:
        if not alive[seed_vertex] or seen[seed_vertex]:
            continue
        component = [int(seed_vertex)]
        seen[seed_vertex] = True
        coeff[seed_vertex] = mags[seed_vertex]
        queue = deque([int(seed_vertex)])
        while queue:
            v = queue.popleft()
            for k in range(n_sites):
                bit = 1 << (n_sites - 1 - k)
                w = v ^ bit
                if not alive[w] or seen[w]:
                    continue
                if v & bit:
                    z = edge_value(w, k)  # v is the 1-side: z = 2 c_w^* c_v
                    value = np.conj(z / (2.0 * coeff[v]))
                else:
                    z = edge_value(v, k)  # z = 2 c_v^* c_w
                    value = z / (2.0 * np.conj(coeff[v]))
                phase = value / abs(value) if abs(value) > 0 else 1.0
                coeff[w] = mags[w] * phase
                seen[w] = True
                component.append(int(w))
                queue.append(int(w))
        components.append(component)
    if len(components) > 1:
        raise PartialReconstructionError(components)
    coeff /= np.linalg.norm(coeff)
    return DenseState(coeff, n_sites, 2)
