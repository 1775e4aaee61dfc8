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

import re
from contextlib import closing
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import DegenerateStateError, FormatError, ParameterError, utf8_lines
from .rotations import rotation_matrices

_MASS_FLOOR = 1e-14
_BLOCK = 512  # shots per write, lines per read of a shot file
_SITE = r"[^;,]*,[^;,]*,[^;,]*"  # one "theta,phi,2m" site field


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
        new = slice(len(self), None)
        thetas, phis, idx = (np.concatenate(pair) for pair in zip(
            (self.thetas, self.phis, self.outcome_indices), (thetas, phis, idx)))
        # the ranges of MeasurementBasis and of the shot file, checked on the
        # joined copy, which is contiguous; min and max pass a NaN on, which
        # fails the comparison, and initial=0 lets an empty batch through
        if not (thetas[new].min(initial=0) >= 0 and thetas[new].max(initial=0) <= np.pi):
            raise ParameterError("theta out of [0, pi]")
        if not (phis[new].min(initial=0) >= 0 and phis[new].max(initial=0) < 2 * np.pi):
            raise ParameterError("phi out of [0, 2 pi)")
        if not (idx[new].min(initial=0) >= 0 and idx[new].max(initial=0) < self.local_dim):
            raise ParameterError(f"outcome index out of [0, {self.local_dim})")
        self.thetas, self.phis, self.outcome_indices = thetas, phis, idx

    def extend(self, other: "Dataset") -> None:
        if other.n_sites != self.n_sites or other.local_dim != self.local_dim:
            raise ParameterError("datasets are incompatible")
        self.extend_raw(other.thetas, other.phis, other.outcome_indices)

    # one line per shot; per-site fields "theta,phi,2m" joined by semicolons,
    # each float written as its repr, which reads back exactly
    def to_file(self, path) -> None:
        twice_m = (self.local_dim - 1) - 2 * self.outcome_indices
        row = ";".join(["%r,%r,%d"] * self.n_sites) + "\n"
        # an object array hands the format Python floats and ints, and "%r"
        # of a Python float is its repr
        cells = np.empty((min(_BLOCK, len(self)), self.n_sites, 3), dtype=object)
        with open(path, "w") as f:
            for start in range(0, len(self), _BLOCK):
                block = cells[: min(_BLOCK, len(self) - start)]
                shots = slice(start, start + len(block))
                block[..., 0] = self.thetas[shots]
                block[..., 1] = self.phis[shots]
                block[..., 2] = twice_m[shots]
                f.write((row * len(block)) % tuple(block.ravel().tolist()))

    @classmethod
    def from_file(cls, path, local_dim) -> "Dataset":
        blocks, numbers, shape, first = [], [], None, 1
        with closing(utf8_lines(path)) as lines:
            while True:
                raw, not_utf8 = [], None
                try:
                    raw.extend(islice(lines, _BLOCK))
                except FormatError as exc:
                    not_utf8 = exc  # the lines read before the bad byte are checked first
                rows = list(map(str.strip, raw))
                line_no = np.arange(first, first + len(rows))
                first += len(rows)
                if not all(rows):
                    line_no = line_no[[bool(row) for row in rows]]
                    rows = list(filter(None, rows))
                if rows and shape is None:  # the first shot sets the site count
                    n_sites = rows[0].count(";") + 1
                    shape = re.compile(f"{_SITE}(?:;{_SITE}){{{n_sites - 1}}}")
                bad = len(rows)
                if rows and not all(map(shape.fullmatch, rows)):
                    bad = next(i for i, row in enumerate(rows) if not shape.fullmatch(row))
                if bad:
                    blocks.append(_parse_block(path, rows[:bad], line_no[:bad]))
                    numbers.append(line_no[:bad])
                if bad < len(rows):
                    ln, sites = line_no[bad], len(_parse_shot(path, line_no[bad], rows[bad])[2])
                    raise FormatError(f"{path}: line {ln}: {sites} sites, expected {n_sites}")
                if not_utf8 is not None:
                    raise not_utf8
                if len(raw) < _BLOCK:
                    break
        if not blocks:
            raise FormatError(f"{path}: no shots")
        thetas, phis, twice_m = (np.concatenate(part) for part in zip(*blocks))
        del blocks  # the joined arrays are the one copy kept
        line_numbers = np.concatenate(numbers)
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
        ds = cls(thetas.shape[1], local_dim)  # takes the checked arrays as they are
        ds.thetas, ds.phis, ds.outcome_indices = thetas, phis, offset // 2
        return ds


def _parse_shot(path, ln, line):
    """One stripped shot line as its theta, phi and 2m lists; FormatError
    names the line and its first bad field, thetas before phis before 2m."""
    triples = [fld.split(",") for fld in line.split(";")]
    if any(len(t) != 3 for t in triples):
        raise FormatError(f"{path}: line {ln}: every site field must be theta,phi,2m")
    try:
        return ([float(t[0]) for t in triples], [float(t[1]) for t in triples],
                [int(t[2]) for t in triples])
    except ValueError as exc:
        raise FormatError(f"{path}: line {ln}: {exc}") from exc


def _parse_block(path, rows, line_no):
    """(thetas, phis, 2m) arrays of shape (len(rows), N) for stripped shot
    lines that all match one site count; a field that does not parse is
    looked up line by line, so the error names its line."""
    fields = ",".join(rows).replace(";", ",").split(",")
    count = len(fields) // 3
    try:
        thetas = np.fromiter(map(float, fields[0::3]), float, count)
        phis = np.fromiter(map(float, fields[1::3]), float, count)
        twice_m = list(map(int, fields[2::3]))
    except ValueError:
        for ln, row in zip(line_no, rows):
            _parse_shot(path, ln, row)
        raise
    try:
        twice_m = np.array(twice_m, dtype=np.int64)
    except OverflowError:  # out of range for every q; judged on exact ints
        twice_m = np.array(twice_m, dtype=object)
    return tuple(a.reshape(len(rows), -1) for a in (thetas, phis, twice_m))


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
    """Outcome indices of ``count`` shots; ``unitaries`` yields each site's
    rotations, (count, q, q) or one (1, q, q) for every shot, in site order."""
    mps = target.canonicalize(0)
    out = np.empty((count, mps.n_sites), dtype=np.int64)
    left = np.ones((count, 1), dtype=np.complex128)
    rows = np.arange(count)
    for j, u in enumerate(unitaries):
        a = mps.tensor(j)
        d1, q, d2 = a.shape
        t = (left @ a.reshape(d1, q * d2)).reshape(count, q, d2)
        cand = np.einsum("smv,svj->smj", u, t)  # (count, q, D2)
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
    rows = count
    if isinstance(basis, MeasurementBasis):
        if basis.n_sites != n:
            raise ParameterError("basis length does not match the state")
        basis, rows = (basis.thetas[None], basis.phis[None]), 1  # one row for every shot
    thetas, phis = (np.asarray(a, dtype=float) for a in basis)
    if thetas.shape != (rows, n) or phis.shape != (rows, n):
        raise ParameterError("per-shot angles must have shape (count, n_sites)")
    # a generator, so that only the site being sampled holds its (count, q, q) stack
    unitaries = (rotation_matrices(thetas[:, j], phis[:, j], target.spin) for j in range(n))
    noisy = rng.random(count) < epsilon if epsilon > 0.0 else None
    idx = _sample_outcome_indices(target, unitaries, count, rng)
    if noisy is not None and noisy.any():
        idx[noisy] = rng.integers(0, q, size=(int(noisy.sum()), n))
    ds = Dataset(n, q)
    ds.extend_raw(*np.broadcast_arrays(thetas, phis, idx))
    return ds


def measure_batch(target, count, epsilon, rng) -> Dataset:
    """One accumulation step of the scheme: ``count`` shots, each in a fresh
    uniformly random product basis, with depolarizing noise ``epsilon``."""
    bases = sample_bases(count, target.n_sites, rng)
    return draw_shots(target, bases, count, rng, epsilon)
