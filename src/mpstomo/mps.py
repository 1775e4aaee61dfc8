"""Complex matrix product states with canonical-center bookkeeping.

Site tensors are numpy arrays of shape (left_bond, physical, right_bond)
with boundary bonds of size 1.  Site 0 is the left end of the chain and
bond k joins sites k and k+1, so a chain of N sites has interior bonds
0 .. N-2.  Physical indices are ordered by descending magnetic number:
index p corresponds to m = S - p, so p = 0 is the +S ("spin up") level.

Public operations treat a state as an immutable value: they return new
instances and never mutate their input.  Training code works on private
tensor copies and rebuilds a state at the end.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import (
    DegenerateStateError,
    FormatError,
    ParameterError,
    ResourceError,
    StateError,
)
# unused here, but bench/tracing.py patches rotation_matrices on this module
from .rotations import rotation_matrices  # noqa: F401

DENSE_LIMIT = 2**20
_MAGIC = b"MPS1"


def _robust_svd(mat):
    try:
        return np.linalg.svd(mat, full_matrices=False)
    except np.linalg.LinAlgError:
        # gesdd occasionally fails to converge; gesvd is slower but reliable.
        # scipy is imported only here: it costs more than the rest of the package.
        import scipy.linalg

        return scipy.linalg.svd(mat, full_matrices=False, lapack_driver="gesvd")


def _overlap(bras, kets) -> complex:
    """<bra|ket> of two site-tensor chains of equal length and local dimension."""
    env = np.ones((1, 1), dtype=np.complex128)
    for a, b in zip(bras, kets):
        env = np.einsum("ab,avc,bvd->cd", env, a.conj(), b)
    return complex(env[0, 0])


def outcome_indices(outcomes, local_dim) -> np.ndarray:
    """Convert magnetic numbers m (or index arrays) to indices p = S - m."""
    arr = np.asarray(outcomes, dtype=float)
    spin = (local_dim - 1) / 2.0
    idx = np.rint(spin - arr)
    if not np.allclose(spin - arr, idx, atol=1e-9):
        raise ParameterError("outcomes must be magnetic numbers m with S - m integer")
    if np.any(idx < 0) or np.any(idx >= local_dim):
        raise ParameterError(f"outcome out of range for local dimension {local_dim}")
    return idx.astype(np.int64)


class MatrixProductState:
    """Open-boundary chain of complex site tensors."""

    __slots__ = ("_tensors", "_center")

    def __init__(self, tensors, center=None):
        if len(tensors) < 1:
            raise ParameterError("need at least one site tensor")
        # the state owns copies of its tensors
        ts = [np.array(t, dtype=np.complex128, order="C") for t in tensors]
        if any(a.ndim != 3 for a in ts):
            raise ParameterError("site tensors must have 3 indices")
        if ts[0].shape[0] != 1 or ts[-1].shape[2] != 1:
            raise ParameterError("boundary bonds must have dimension 1")
        q = ts[0].shape[1]
        for k in range(len(ts) - 1):
            if ts[k].shape[2] != ts[k + 1].shape[0]:
                raise ParameterError(f"bond mismatch between sites {k} and {k + 1}")
            if ts[k + 1].shape[1] != q:
                raise ParameterError("all sites must share one physical dimension")
        if center is not None and not 0 <= center < len(ts):
            raise ParameterError(f"canonical center {center} out of range")
        self._tensors = ts
        self._center = center

    # -- basic structure ---------------------------------------------------

    @property
    def n_sites(self) -> int:
        return len(self._tensors)

    @property
    def local_dim(self) -> int:
        return self._tensors[0].shape[1]

    @property
    def spin(self) -> float:
        return (self.local_dim - 1) / 2.0

    @property
    def canonical_center(self):
        """Site index of the canonical center, or None when unknown."""
        return self._center

    @property
    def bond_dims(self):
        """Interior bond dimensions D_1 .. D_{N-1} (bond k joins sites k, k+1)."""
        return [t.shape[2] for t in self._tensors[:-1]]

    def tensor(self, k) -> np.ndarray:
        """The site-k tensor.  Treat as read-only."""
        return self._tensors[k]

    def norm(self) -> float:
        return float(np.sqrt(abs(_overlap(self._tensors, self._tensors))))

    # -- gauge -------------------------------------------------------------

    def canonicalize(self, center) -> "MatrixProductState":
        """Gauge-fix so sites < center are left-canonical and sites > center
        right-canonical.  The state vector is unchanged."""
        n = self.n_sites
        if not 0 <= center < n:
            raise ParameterError(f"center {center} out of range for {n} sites")
        ts = list(self._tensors)
        for k in range(center):
            d1, q, d2 = ts[k].shape
            qmat, r = np.linalg.qr(ts[k].reshape(d1 * q, d2))
            ts[k] = qmat.reshape(d1, q, -1)
            ts[k + 1] = np.einsum("ij,jvk->ivk", r, ts[k + 1])
        for k in range(n - 1, center, -1):
            d1, q, d2 = ts[k].shape
            qmat, r = np.linalg.qr(ts[k].reshape(d1, q * d2).conj().T)
            ts[k] = qmat.conj().T.reshape(-1, q, d2)
            ts[k - 1] = np.einsum("ivj,jk->ivk", ts[k - 1], r.conj().T)
        return MatrixProductState(ts, center=center)

    # -- evaluation --------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        """Full state vector of length q**N, site 0 as the most significant digit."""
        q, n = self.local_dim, self.n_sites
        if q**n > DENSE_LIMIT:
            raise ResourceError(f"dense vector of size {q}**{n} exceeds limit {DENSE_LIMIT}")
        acc = self._tensors[0][0]  # (q, D)
        for t in self._tensors[1:]:
            acc = np.einsum("xi,ivj->xvj", acc, t)
            acc = acc.reshape(-1, t.shape[2])
        return acc[:, 0].copy()

    def fidelity_distance(self, other) -> tuple[float, float]:
        """Overlap magnitude F = |<self|other>| and R = sqrt((1 - F^2)/2)."""
        if not isinstance(other, MatrixProductState):
            raise ParameterError("can only compare against another state")
        if other.n_sites != self.n_sites or other.local_dim != self.local_dim:
            raise ParameterError("states differ in shape")
        f = min(abs(_overlap(self._tensors, other._tensors)), 1.0)
        return f, float(np.sqrt((1.0 - f * f) / 2.0))

    def renyi2_entropy(self, k) -> float:
        """Second-order Renyi entanglement entropy across bond k of the
        normalized state, -ln sum_i s_i^4."""
        if not 0 <= k <= self.n_sites - 2:
            raise ParameterError(f"bond {k} out of range")
        m = self if self._center in (k, k + 1) else self.canonicalize(k)
        c = m._center
        t = m._tensors[c]
        d1, q, d2 = t.shape
        mat = t.reshape(d1 * q, d2) if c == k else t.reshape(d1, q * d2)
        s2 = np.linalg.svd(mat, compute_uv=False) ** 2
        total = s2.sum()
        if total <= 0:
            raise DegenerateStateError("state has zero norm")
        s2 /= total
        return float(-np.log(np.sum(s2**2)))

    # -- serialization -------------------------------------------------------

    def save(self, path) -> None:
        """Binary container: magic, N, q, interior bond dims (u32 LE), then
        tensors in site order as interleaved re/im float64 LE, row-major."""
        with open(path, "wb") as f:
            f.write(_MAGIC)
            f.write(struct.pack("<II", self.n_sites, self.local_dim))
            f.write(np.asarray(self.bond_dims, dtype="<u4").tobytes())
            for t in self._tensors:
                f.write(np.ascontiguousarray(t, dtype="<c16").tobytes())


def load_mps(path) -> MatrixProductState:
    """Read a state written by :meth:`MatrixProductState.save`.

    A malformed file raises FormatError naming the byte offset at fault."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 12:
        raise FormatError(f"{path}: byte {len(raw)}: file ends inside the 12-byte header")
    if raw[:4] != _MAGIC:
        raise FormatError(f"{path}: byte 0: bad magic {raw[:4]!r}")
    n, q = struct.unpack_from("<II", raw, 4)
    if n < 1:
        raise FormatError(f"{path}: byte 4: {n} sites, need at least 1")
    if q < 2:
        raise FormatError(f"{path}: byte 8: local dimension {q}, need at least 2")
    off = 12

    def read(dtype, count, what):
        nonlocal off
        end = off + np.dtype(dtype).itemsize * count
        if end > len(raw):
            raise FormatError(
                f"{path}: byte {off}: {what} runs past the end of the file "
                f"({end - off} bytes needed, {len(raw) - off} left)"
            )
        arr = np.frombuffer(raw, dtype=dtype, count=count, offset=off)
        off = end
        return arr

    bonds = read("<u4", max(n - 1, 0), "bond header")
    zero = np.flatnonzero(bonds == 0)
    if zero.size:
        raise FormatError(f"{path}: byte {12 + 4 * zero[0]}: bond {zero[0]} has dimension 0")
    dims = [1, *bonds.tolist(), 1]
    tensors = []
    for k in range(n):
        start = off
        t = read("<c16", dims[k] * q * dims[k + 1], f"site {k} tensor")
        bad = np.flatnonzero(~np.isfinite(t))
        if bad.size:
            raise FormatError(f"{path}: byte {start + 16 * bad[0]}: non-finite entry in site {k}")
        tensors.append(t.reshape(dims[k], q, dims[k + 1]))
    if off != len(raw):
        raise FormatError(f"{path}: byte {off}: trailing bytes after tensor payload")
    return MatrixProductState(tensors, center=None)


def _gaussian_chain(n_sites, local_dim, bond_dim, seed, scale=1.0, offset=0.0):
    """Canonicalized, normalized chain of site tensors scale * (a + ib), with
    standard normal a then b drawn per site and ``offset`` added at [0, 0, 0];
    bonds min(bond_dim, q^k, q^(N-k)).  Deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    tensors = []
    for k in range(n_sites):
        d1 = min(bond_dim, local_dim**k, local_dim ** (n_sites - k))
        d2 = min(bond_dim, local_dim ** (k + 1), local_dim ** (n_sites - k - 1))
        shape = (d1, local_dim, d2)
        t = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        t[0, 0, 0] += offset
        tensors.append(t)
    mps = MatrixProductState(tensors).canonicalize(0)
    nrm = np.linalg.norm(mps._tensors[0])
    if nrm == 0:
        raise DegenerateStateError("random initialization collapsed to zero")
    mps._tensors[0] /= nrm
    return mps


def random_init(n_sites, local_dim, bond_dim, seed) -> MatrixProductState:
    """Normalized near-product starting state.

    A |0...0> product state with complex Gaussian noise of scale 0.2 on every
    tensor entry, canonicalized and normalized.  Bond dimensions follow
    min(bond_dim, q^k, q^(N-k)); deterministic for a fixed seed.
    """
    if n_sites < 2 or local_dim < 2 or bond_dim < 1:
        raise ParameterError("need n_sites >= 2, local_dim >= 2, bond_dim >= 1")
    return _gaussian_chain(
        n_sites, local_dim, bond_dim, seed, scale=0.2 / np.sqrt(2.0), offset=1.0
    )


def merge_two_site(left, right) -> np.ndarray:
    """Contract two adjacent site tensors over their shared bond into a
    (D_left, q, q, D_right) array, the form :func:`split_two_site` splits."""
    return np.einsum("ivj,jwl->ivwl", left, right)


def split_two_site(merged, d_cap, eta, direction) -> tuple[np.ndarray, np.ndarray, float]:
    """SVD a merged (D_left, q, q, D_right) tensor back into two sites.

    Keeps singular values >= eta * s_max, at most ``d_cap`` of them, and
    absorbs the singular weights toward ``direction`` ('left' or 'right') so
    the canonical center lands there.  The kept part is renormalized; the
    returned discarded weight is sum of dropped s_i^2 over sum of all s_i^2.
    """
    if direction not in ("left", "right"):
        raise ParameterError(f"direction must be 'left' or 'right', got {direction!r}")
    if d_cap < 1 or eta < 0:
        raise ParameterError("need d_cap >= 1 and eta >= 0")
    d1, q, q2, d2 = merged.shape
    u, s, vh = _robust_svd(merged.reshape(d1 * q, q2 * d2))
    if not np.isfinite(s[0]) or s[0] <= 0.0:
        raise DegenerateStateError("merged tensor is numerically zero")
    r = int(np.count_nonzero(s >= eta * s[0]))
    r = max(1, min(r, d_cap))
    total = float(np.sum(s**2))
    kept = float(np.sum(s[:r] ** 2))
    discarded = max(0.0, 1.0 - kept / total)
    s_kept = s[:r] / np.sqrt(kept)
    if direction == "right":
        left = u[:, :r].reshape(d1, q, r)
        right = (s_kept[:, None] * vh[:r]).reshape(r, q2, d2)
    else:
        left = (u[:, :r] * s_kept).reshape(d1, q, r)
        right = vh[:r].reshape(r, q2, d2)
    return left, right, discarded


def max_canonical_defect(mps) -> float:
    """Largest deviation of any site from its canonical condition.

    Sites left of the center are checked against the left-canonical identity,
    sites right of it against the right-canonical one.  Returns 0.0 for a
    single-site chain; requires a known center.
    """
    c = mps.canonical_center
    if c is None:
        raise StateError("state has no canonical center")
    worst = 0.0
    for k in range(mps.n_sites):
        t = mps.tensor(k)
        if k < c:
            g = np.einsum("ivj,ivl->jl", t.conj(), t)
        elif k > c:
            g = np.einsum("ivj,lvj->il", t.conj(), t)
        else:
            continue
        worst = max(worst, float(np.max(np.abs(g - np.eye(g.shape[0])))))
    return worst
