"""Random product bases, projective single-shot sampling, and the shot dataset.

A measurement basis is a list of per-site directions (theta, phi); measuring
in it yields one magnetic number m per site.  Outcomes are stored internally
as indices p = S - m (p = 0 is m = +S); the shot file carries the
physical values 2m.

Sampling from a matrix product state is autoregressive: with the state
right-canonicalized, the rotated site tensors stay right-isometric, so the
conditional distribution of each site's outcome given the ones already drawn
is the squared norm of a small environment vector.  No enumeration of the
outcome space and no rejection is involved, and every shot costs
O(N q^2 D^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError, FormatError, ParameterError, utf8_lines
from .rotations import rotation_matrices

_MASS_FLOOR = 1e-14


@dataclass(frozen=True)
class MeasurementBasis:
    """Per-site measurement directions (theta in [0, pi], phi in [0, 2 pi))."""

    thetas: np.ndarray
    phis: np.ndarray

    def __post_init__(self):
        thetas = np.asarray(self.thetas, dtype=float)
        phis = np.asarray(self.phis, dtype=float)
        if thetas.ndim != 1 or thetas.shape != phis.shape:
            raise ParameterError("thetas and phis must be 1-d arrays of equal length")
        if np.any(thetas < 0) or np.any(thetas > np.pi):
            raise ParameterError("theta out of [0, pi]")
        if np.any(phis < 0) or np.any(phis >= 2 * np.pi):
            raise ParameterError("phi out of [0, 2 pi)")
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "phis", phis)

    @property
    def n_sites(self) -> int:
        return len(self.thetas)

    @classmethod
    def all_z(cls, n_sites) -> "MeasurementBasis":
        return cls(np.zeros(n_sites), np.zeros(n_sites))


class Dataset:
    """Append-only collection of shots, stored as flat (|V|, N) arrays: the
    basis angles ``thetas`` and ``phis`` and the ``outcome_indices`` p = S - m."""

    def __init__(self, n_sites, local_dim):
        if n_sites < 1 or local_dim < 2:
            raise ParameterError("need n_sites >= 1 and local_dim >= 2")
        self.n_sites = int(n_sites)
        self.local_dim = int(local_dim)
        self.thetas = np.zeros((0, self.n_sites))
        self.phis = np.zeros((0, self.n_sites))
        self.outcome_indices = np.zeros((0, self.n_sites), dtype=np.int64)

    @property
    def spin(self) -> float:
        return (self.local_dim - 1) / 2.0

    def __len__(self) -> int:
        return self.thetas.shape[0]

    def extend_raw(self, thetas, phis, idx) -> None:
        thetas = np.asarray(thetas, dtype=float)
        phis = np.asarray(phis, dtype=float)
        idx = np.asarray(idx, dtype=np.int64)
        if thetas.shape != phis.shape or thetas.shape != idx.shape:
            raise ParameterError("mismatched shot arrays")
        if thetas.ndim != 2 or thetas.shape[1] != self.n_sites:
            raise ParameterError("shot arrays must have shape (count, n_sites)")
        self.thetas = np.concatenate([self.thetas, thetas])
        self.phis = np.concatenate([self.phis, phis])
        self.outcome_indices = np.concatenate([self.outcome_indices, idx])

    def extend(self, other: "Dataset") -> None:
        if other.n_sites != self.n_sites or other.local_dim != self.local_dim:
            raise ParameterError("datasets are incompatible")
        self.extend_raw(other.thetas, other.phis, other.outcome_indices)

    # one line per shot; per-site fields "theta,phi,2m" joined by semicolons
    def to_file(self, path) -> None:
        thetas, phis = self.thetas, self.phis
        twice_m = (self.local_dim - 1) - 2 * self.outcome_indices
        with open(path, "w") as f:
            for s in range(len(self)):
                fields = (
                    f"{float(thetas[s, j])!r},{float(phis[s, j])!r},{twice_m[s, j]:d}"
                    for j in range(self.n_sites)
                )
                f.write(";".join(fields) + "\n")

    @classmethod
    def from_file(cls, path, local_dim) -> "Dataset":
        rows, line_numbers = [], []
        for ln, line in enumerate(utf8_lines(path), start=1):
            line = line.strip()
            if not line:
                continue
            triples = [fld.split(",") for fld in line.split(";")]
            if any(len(t) != 3 for t in triples):
                raise FormatError(f"{path}: line {ln}: every site field must be theta,phi,2m")
            try:
                th = [float(t[0]) for t in triples]
                ph = [float(t[1]) for t in triples]
                tm = [int(t[2]) for t in triples]
            except ValueError as exc:
                raise FormatError(f"{path}: line {ln}: {exc}") from exc
            if rows and len(tm) != len(rows[0][2]):
                raise FormatError(
                    f"{path}: line {ln}: {len(tm)} sites, expected {len(rows[0][2])}"
                )
            rows.append((th, ph, tm))
            line_numbers.append(ln)
        if not rows:
            raise FormatError(f"{path}: no shots")
        thetas = np.array([r[0] for r in rows])
        phis = np.array([r[1] for r in rows])
        twice_m = np.array([r[2] for r in rows])
        offset = (local_dim - 1) - twice_m  # 2 p, even for a valid 2m

        def require(ok, what):
            bad = np.flatnonzero(~ok.all(axis=1))
            if bad.size:
                raise FormatError(f"{path}: line {line_numbers[bad[0]]}: {what}")

        require(np.isfinite(thetas) & np.isfinite(phis), "non-finite angle")
        require((thetas >= 0) & (thetas <= np.pi), "theta out of [0, pi]")
        require((phis >= 0) & (phis < 2 * np.pi), "phi out of [0, 2 pi)")
        require(offset % 2 == 0, f"2m must have the parity of q - 1 = {local_dim - 1}")
        require((offset >= 0) & (offset <= 2 * (local_dim - 1)),
                f"outcome out of range for q={local_dim}")
        ds = cls(thetas.shape[1], local_dim)
        ds.extend_raw(thetas, phis, offset // 2)
        return ds


# -- basis sampling ----------------------------------------------------------


def sample_bases(count, n_sites, rng) -> tuple[np.ndarray, np.ndarray]:
    """Angles of ``count`` i.i.d. uniform product bases, shape (count, N) each.

    Directions are uniform on the sphere: cos(theta) ~ U[-1, 1] and
    phi ~ U[0, 2 pi), independently per site.
    """
    cos_t = rng.uniform(-1.0, 1.0, size=(count, n_sites))
    thetas = np.arccos(cos_t)
    phis = rng.uniform(0.0, 2.0 * np.pi, size=(count, n_sites))
    return thetas, phis


def sample_basis(n_sites, rng) -> MeasurementBasis:
    thetas, phis = sample_bases(1, n_sites, rng)
    return MeasurementBasis(thetas[0], phis[0])


def fixed_bases(n_sites) -> list[MeasurementBasis]:
    """The 2N+1 fixed qubit product bases: all-z, then z with site k rotated
    to x, then z with site k rotated to y."""
    bases = [MeasurementBasis.all_z(n_sites)]
    for phi in (0.0, np.pi / 2.0):
        for k in range(n_sites):
            thetas = np.zeros(n_sites)
            phis = np.zeros(n_sites)
            thetas[k] = np.pi / 2.0
            phis[k] = phi
            bases.append(MeasurementBasis(thetas, phis))
    return bases


# -- projective sampling -------------------------------------------------------


def _sample_outcome_indices(target, unitaries, count, rng) -> np.ndarray:
    mps = target.canonicalize(0)
    n = mps.n_sites
    left = np.ones((count, 1), dtype=np.complex128)
    out = np.empty((count, n), dtype=np.int64)
    rows = np.arange(count)
    for j in range(n):
        a = mps.tensor(j)
        d1, q, d2 = a.shape
        t = (left @ a.reshape(d1, q * d2)).reshape(count, q, d2)
        cand = np.einsum("smv,svj->smj", unitaries[j], t)  # (count, q, D2)
        w = (cand.real**2 + cand.imag**2).sum(axis=2)
        total = w.sum(axis=1)
        if np.any(total < _MASS_FLOOR):
            raise DegenerateStateError(
                "conditional outcome mass vanished during sampling"
            )
        cum = np.cumsum(w, axis=1)
        r = rng.random(count) * total
        choice = (cum > r[:, None]).argmax(axis=1)
        out[:, j] = choice
        left = cand[rows, choice, :]
        left /= np.linalg.norm(left, axis=1, keepdims=True)
    return out


def draw_shots(target, basis, count, rng, epsilon=0.0) -> Dataset:
    """Sample ``count`` independent shots with outcome probability equal to the
    squared rotated amplitude.  ``basis`` is a single MeasurementBasis applied
    to every shot, or a (thetas, phis) pair of (count, N) arrays.

    Depolarizing noise: with probability ``epsilon`` a shot's outcomes are
    replaced by a uniformly random string.  The noise mask is drawn before
    the outcomes, and only when epsilon > 0, so epsilon = 0 consumes the
    random stream exactly like noiseless sampling.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ParameterError("epsilon must lie in [0, 1]")
    n, q = target.n_sites, target.local_dim
    if isinstance(basis, MeasurementBasis):
        if basis.n_sites != n:
            raise ParameterError("basis length does not match the state")
        # one rotation per site, seen by every shot through a stride-0 view
        shared = rotation_matrices(basis.thetas, basis.phis, target.spin)
        unitaries = [np.broadcast_to(u, (count, q, q)) for u in shared]
        thetas, phis = (np.broadcast_to(a, (count, n)) for a in (basis.thetas, basis.phis))
    else:
        thetas, phis = (np.array(a, dtype=float) for a in basis)
        if thetas.shape != (count, n) or phis.shape != (count, n):
            raise ParameterError("per-shot angles must have shape (count, n_sites)")
        unitaries = [rotation_matrices(thetas[:, j], phis[:, j], target.spin) for j in range(n)]
    noisy = rng.random(count) < epsilon if epsilon > 0.0 else None
    idx = _sample_outcome_indices(target, unitaries, count, rng)
    if noisy is not None and noisy.any():
        idx[noisy] = rng.integers(0, q, size=(int(noisy.sum()), n))
    ds = Dataset(n, q)
    ds.extend_raw(thetas, phis, idx)
    return ds


def measure_batch(target, count, epsilon, rng) -> Dataset:
    """One accumulation step of the scheme: ``count`` shots, each in a fresh
    uniformly random product basis, with depolarizing noise ``epsilon``."""
    bases = sample_bases(count, target.n_sites, rng)
    return draw_shots(target, bases, count, rng, epsilon)
