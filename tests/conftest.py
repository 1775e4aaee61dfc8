import numpy as np
import pytest

from mpstomo import Dataset, nll
from mpstomo.mps import outcome_indices


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def dense_from_tensors(tensors):
    """Independent site-by-site contraction to a state vector (oracle)."""
    acc = np.asarray(tensors[0], dtype=complex)[0]  # (q, D)
    for t in tensors[1:]:
        t = np.asarray(t, dtype=complex)
        acc = np.tensordot(acc, t, axes=(acc.ndim - 1, 0))
        acc = acc.reshape(-1, t.shape[2])
    return acc[:, 0]


def one_shot_dataset(thetas, phis, ms, local_dim=2):
    """A dataset of the single outcome string ``ms`` (magnetic numbers m)
    measured in the basis with per-site angles ``thetas``, ``phis``."""
    ds = Dataset(len(ms), local_dim)
    ds.extend_raw([thetas], [phis], [outcome_indices(ms, local_dim)])
    return ds


def all_z(n_sites):
    """The all-z basis as a (thetas, phis) pair."""
    return np.zeros(n_sites), np.zeros(n_sites)


def shot_probability(mps, basis, ms):
    """|amp|^2 of outcome string ``ms`` in ``basis``, a (thetas, phis) pair of
    one row, read off the training NLL of a one-shot dataset (so clamped
    below at 1e-12)."""
    thetas, phis = (np.reshape(a, -1) for a in basis)
    ds = one_shot_dataset(thetas, phis, ms, mps.local_dim)
    return float(np.exp(-nll(mps, ds)))


def kron_all(mats):
    out = np.array([[1.0]], dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out
