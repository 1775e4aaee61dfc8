import numpy as np
import pytest

from mpstomo import Dataset, nll
from mpstomo.mps import merge_two_site, outcome_indices
from mpstomo.training import BondObjective, _contract_left, _contract_right, _tensors_and_rows


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


def bond_objective(mps, bond, dataset, penalty_weight):
    """The objective the trainer builds at ``bond``, with its merged tensor:
    the state canonicalized at the bond, its environments contracted over
    the dataset's rotation rows."""
    work = mps.canonicalize(bond)
    tensors, rows = _tensors_and_rows(work, dataset)
    left = right = np.ones((len(dataset), 1), dtype=np.complex128)
    for j in range(bond):
        left = _contract_left(left, tensors[j], rows[j])
    for j in range(len(tensors) - 1, bond + 1, -1):
        right = _contract_right(tensors[j], rows[j], right)
    obj = BondObjective(left, rows[bond], rows[bond + 1], right, penalty_weight)
    return obj, merge_two_site(work.tensor(bond), work.tensor(bond + 1))


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
