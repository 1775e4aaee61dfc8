"""Spin rotation matrices for arbitrary (half-)integer spin.

The small-d matrix element d_{m'm}(theta) = <m'|exp(-i theta s_y)|m> is
evaluated from the explicit factorial sum, so the result is exact up to
floating-point rounding for any spin.  Full rotations combine a small-d
factor with z-axis phases:

    U(theta, phi) = exp(i theta s_y) exp(i phi s_z)

which maps the spin coherent state along direction (theta, phi) back to
the +z eigenbasis.  Matrix rows and columns are ordered by descending
magnetic quantum number, m = S - p for row/column index p.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, isqrt

import numpy as np

from .errors import ParameterError


def _two_s(spin) -> int:
    """Validate a (half-)integer spin and return 2S as an int."""
    two = int(round(2 * spin))
    if two < 1 or abs(2 * spin - two) > 1e-9:
        raise ParameterError(f"spin must be a positive half-integer, got {spin!r}")
    return two


@lru_cache(maxsize=None)
def _d_terms(two_s):
    """Factorial-sum terms of the small-d matrix for 2S = two_s.

    Returns a (q, q) nested list; entry [p_row][p_col] is a list of
    (weight, cos_power, sin_power) triples with the sign folded into the
    weight.  The sum over the inner index runs over every value that keeps
    all factorial arguments non-negative.
    """
    q = two_s + 1
    table = []
    for pr in range(q):
        row = []
        m2r = two_s - 2 * pr  # 2 m'
        for pc in range(q):
            m2c = two_s - 2 * pc  # 2 m
            sp_mr = (two_s + m2r) // 2  # S + m'
            sm_mr = (two_s - m2r) // 2  # S - m'
            sp_mc = (two_s + m2c) // 2  # S + m
            sm_mc = (two_s - m2c) // 2  # S - m
            dr = (m2r - m2c) // 2  # m' - m
            num_sq = (
                factorial(sp_mr) * factorial(sm_mr) * factorial(sp_mc) * factorial(sm_mc)
            )
            terms = []
            for k in range(max(0, -dr), min(sp_mc, sm_mr) + 1):
                den = (
                    factorial(sp_mc - k)
                    * factorial(k)
                    * factorial(sm_mr - k)
                    * factorial(k + dr)
                )
                weight = (-1) ** (k + dr) * _exact_sqrt_ratio(num_sq, den)
                terms.append((weight, two_s - (2 * k + dr), 2 * k + dr))
            row.append(tuple(terms))
        table.append(tuple(row))
    return tuple(table)


def _exact_sqrt_ratio(num_sq, den):
    # sqrt(num_sq)/den with an exact integer square root when available
    r = isqrt(num_sq)
    if r * r == num_sq:
        return r / den
    return num_sq**0.5 / den


def wigner_d_matrix(spin, theta) -> np.ndarray:
    """Full small-d matrix; ``theta`` may be a scalar or an array.

    Returns shape ``theta.shape + (q, q)`` with q = 2S + 1.
    """
    two_s = _two_s(spin)
    q = two_s + 1
    th = np.asarray(theta, dtype=float)
    c = np.cos(th / 2.0)
    s = np.sin(th / 2.0)
    out = np.zeros(th.shape + (q, q))
    table = _d_terms(two_s)
    for pr in range(q):
        for pc in range(q):
            acc = 0.0
            for w, cp, sp in table[pr][pc]:
                acc = acc + w * c**cp * s**sp
            out[..., pr, pc] = acc
    return out


def rotation_matrices(thetas, phis, spin) -> np.ndarray:
    """Batch of rotations U(theta, phi) = exp(i theta s_y) exp(i phi s_z).

    ``thetas`` and ``phis`` broadcast against each other; the result has
    shape ``broadcast.shape + (q, q)`` and is unitary to machine precision.
    A direction with theta exactly 0 points along +z for every phi, and is
    gauge-fixed to the exact identity.
    """
    two_s = _two_s(spin)
    q = two_s + 1
    th, ph = np.broadcast_arrays(np.asarray(thetas, float), np.asarray(phis, float))
    d = wigner_d_matrix(spin, -th)
    m_vals = (two_s - 2 * np.arange(q)) / 2.0
    phase = np.exp(1j * ph[..., None, None] * m_vals.reshape(1, q))
    u = d * phase
    pole = th == 0.0
    if np.any(pole):
        u[pole] = np.eye(q)
    return u

