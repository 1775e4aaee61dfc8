"""Random product bases, projective single-shot sampling, and the shot dataset.

A measurement basis is a pair of per-site angle arrays (thetas, phis), one
direction per site; measuring in it yields one magnetic number m per site.
Outcomes are stored internally as indices p = S - m (p = 0 is m = +S); the
shot file carries the physical values 2m.

Sampling from a matrix product state is autoregressive: with the state
right-canonicalized, the rotated site tensors stay right-isometric, so the
conditional distribution of each site's outcome given the ones already drawn
is the squared norm of a small environment vector.  No enumeration of the
outcome space and no rejection is involved, and every shot costs
O(N q^2 D^2).
"""

from __future__ import annotations

import os
import re
from contextlib import closing
from itertools import islice

import numpy as np

from .errors import DegenerateStateError, FormatError, ParameterError, utf8_lines
from .rotations import rotation_matrices

_MASS_FLOOR = 1e-14
_BLOCK = 512  # shots per write, lines per read of a shot file
_SHOT_BLOCK = 2048  # shots sampled at a time
_SITE = r"[^;,]*,[^;,]*,[^;,]*"  # one "theta,phi,2m" site field


def check_angles(thetas, phis) -> None:
    """ParameterError unless every theta lies in [0, pi] and every phi in
    [0, 2 pi), the ranges of the shot file; min and max pass a NaN on, which
    fails the comparison, and initial=0 lets an empty batch through."""
    if not (thetas.min(initial=0) >= 0 and thetas.max(initial=0) <= np.pi):
        raise ParameterError("theta out of [0, pi]")
    if not (phis.min(initial=0) >= 0 and phis.max(initial=0) < 2 * np.pi):
        raise ParameterError("phi out of [0, 2 pi)")


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

    @classmethod
    def _adopt(cls, thetas, phis, idx, local_dim) -> "Dataset":
        """A dataset that takes checked (count, N) shot arrays as they are;
        the caller hands them over and keeps no other reference."""
        ds = cls(thetas.shape[1], local_dim)
        ds.thetas, ds.phis, ds.outcome_indices = thetas, phis, idx
        return ds

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
        check_angles(thetas[new], phis[new])  # on the joined copy, which is contiguous
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
        with open(path, "w") as f:
            for start in range(0, len(self), _BLOCK):
                shots = slice(start, start + _BLOCK)
                parts = (self.thetas[shots], self.phis[shots], twice_m[shots])
                block = np.stack(parts, axis=-1, dtype=object)
                f.write((row * len(block)) % tuple(block.ravel().tolist()))

    @classmethod
    def from_file(cls, path, local_dim) -> "Dataset":
        parts, shape, filled, first = None, None, 0, 1
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
                    block = _parse_block(path, rows[:bad], line_no[:bad])
                    if parts is None:  # sized by a shot that parsed, of 6 N - 1 bytes or more
                        size = min(_line_count(path), os.path.getsize(path) // (6 * n_sites - 1))
                        parts = [np.empty((size, n_sites)), np.empty((size, n_sites)),
                                 np.empty((size, n_sites), dtype=np.int64)]
                        line_numbers = np.empty(size, dtype=np.int64)
                    if block[2].dtype == object:  # a 2m beyond int64, judged on exact ints
                        parts[2] = parts[2].astype(object, copy=False)
                    new = slice(filled, filled + bad)
                    for part, values in zip(parts, block):
                        part[new] = values
                    line_numbers[new] = line_no[:bad]
                    filled += bad
                if bad < len(rows):
                    ln, sites = line_no[bad], len(_parse_shot(path, line_no[bad], rows[bad])[2])
                    raise FormatError(f"{path}: line {ln}: {sites} sites, expected {n_sites}")
                if not_utf8 is not None:
                    raise not_utf8
                if len(raw) < _BLOCK:
                    break
        if not filled:
            raise FormatError(f"{path}: no shots")
        if filled < size:  # blank lines left rows unused
            parts = [part[:filled].copy() for part in parts]
        thetas, phis, offset = parts
        np.subtract(local_dim - 1, offset, out=offset)  # 2 p, even for a valid 2m

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
        return cls._adopt(thetas, phis, np.floor_divide(offset, 2, out=offset), local_dim)


def _line_count(path) -> int:
    """The number of lines ``utf8_lines`` yields for ``path``, counted in one
    binary pass: a line ends at LF, CR or CR LF, and a last line may end at
    neither."""
    count, last = 0, b"\n"
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            cr = chunk.count(b"\r")
            count += chunk.count(b"\n") + cr - (cr and chunk.count(b"\r\n"))
            count -= last == b"\r" and chunk[:1] == b"\n"
            last = chunk[-1:]
    return count + (last not in b"\r\n")


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


def fixed_bases(n_sites) -> list[tuple[np.ndarray, np.ndarray]]:
    """The 2N+1 fixed qubit product bases as (thetas, phis) pairs: all-z,
    then z with site k rotated to x, then z with site k rotated to y."""
    bases = [(np.zeros(n_sites), np.zeros(n_sites))]
    for phi in (0.0, np.pi / 2.0):
        for k in range(n_sites):
            thetas = np.zeros(n_sites)
            phis = np.zeros(n_sites)
            thetas[k] = np.pi / 2.0
            phis[k] = phi
            bases.append((thetas, phis))
    return bases


# -- projective sampling -------------------------------------------------------


def _sample_outcome_indices(target, unitaries, count, rng) -> np.ndarray:
    """Outcome indices of ``count`` shots, sampled ``_SHOT_BLOCK`` shots at a
    time through every site; ``unitaries(j, shots)`` returns site j's
    rotations for the slice ``shots``, one (q, q) per shot or one (1, q, q)
    for every shot.  The uniforms are drawn first, one row per site, the
    stream of one ``rng.random(count)`` per site."""
    mps = target.canonicalize(0)
    tensors = [a.reshape(a.shape[0], -1) for a in map(mps.tensor, range(mps.n_sites))]
    uniforms = rng.random((mps.n_sites, count))
    out = np.empty((count, mps.n_sites), dtype=np.int64)
    for start in range(0, count, _SHOT_BLOCK):
        shots = slice(start, min(start + _SHOT_BLOCK, count))
        rows = np.arange(shots.stop - start)
        left = np.ones((len(rows), 1), dtype=np.complex128)
        for j, a in enumerate(tensors):
            t = (left @ a).reshape(len(rows), target.local_dim, -1)
            cand = np.einsum("smv,svj->smj", unitaries(j, shots), t)  # (shots, q, D2)
            w = (cand.real**2 + cand.imag**2).sum(axis=2)
            total = w.sum(axis=1)
            if np.any(total < _MASS_FLOOR):
                raise DegenerateStateError(
                    "conditional outcome mass vanished during sampling"
                )
            cum = np.cumsum(w, axis=1)
            r = uniforms[j, shots] * total
            choice = (cum > r[:, None]).argmax(axis=1)
            out[shots, j] = choice
            left = cand[rows, choice, :]
            left /= np.linalg.norm(left, axis=1, keepdims=True)
    return out


def draw_shots(target, basis, count, rng, epsilon=0.0) -> Dataset:
    """Sample ``count`` independent shots with outcome probability equal to the
    squared rotated amplitude.  ``basis`` is a (thetas, phis) pair of
    (count, N) arrays, one row per shot, or of one row, (N,) or (1, N),
    shared by every shot.

    Depolarizing noise: with probability ``epsilon`` a shot's outcomes are
    replaced by a uniformly random string.  The noise mask is drawn before
    the outcomes, and only when epsilon > 0, so epsilon = 0 consumes the
    random stream exactly like noiseless sampling.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ParameterError("epsilon must lie in [0, 1]")
    n, q = target.n_sites, target.local_dim
    thetas, phis = (np.atleast_2d(np.asarray(a, dtype=float)) for a in basis)
    if thetas.shape != phis.shape or thetas.shape not in ((count, n), (1, n)):
        raise ParameterError("basis angles must have shape (count, n_sites) or (n_sites,)")
    check_angles(thetas, phis)  # before any rotation, so bad angles never reach the sampler
    # one rotation per site and block; a shared basis rotates its one row
    def unitaries(j, shots):
        rows = shots if len(thetas) > 1 else slice(None)
        return rotation_matrices(thetas[rows, j], phis[rows, j], target.spin)

    noisy = rng.random(count) < epsilon if epsilon > 0.0 else None
    idx = _sample_outcome_indices(target, unitaries, count, rng)
    if noisy is not None and noisy.any():
        idx[noisy] = rng.integers(0, q, size=(int(noisy.sum()), n))
    # C-ordered copies: a shared row is broadcast, a caller's array is not kept
    thetas, phis = (np.array(np.broadcast_to(a, idx.shape), order="C") for a in (thetas, phis))
    return Dataset._adopt(thetas, phis, idx, q)


def measure_batch(target, count, epsilon, rng) -> Dataset:
    """One accumulation step of the scheme: ``count`` shots, each in a fresh
    uniformly random product basis, with depolarizing noise ``epsilon``."""
    bases = sample_bases(count, target.n_sites, rng)
    return draw_shots(target, bases, count, rng, epsilon)
