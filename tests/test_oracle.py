import numpy as np
import pytest

from mpstomo import (
    DenseState,
    ParameterError,
    PartialReconstructionError,
    dense_probabilities,
    dense_probability,
    fixed_basis_probabilities,
    fixed_basis_reconstruct,
    kl_divergence,
    random_target,
    sample_bases,
    w_state,
)

from conftest import all_z, shot_probability


def random_dense(n, rng, floor=0.0):
    while True:
        c = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        c /= np.linalg.norm(c)
        if floor == 0.0 or np.min(np.abs(c)) > floor:
            return DenseState(c, n, 2)


def plus_state(n):
    c = np.full(2**n, 2.0 ** (-n / 2), dtype=complex)
    return DenseState(c, n, 2)


class TestDenseProbability:
    def test_certain_outcome(self):
        state = DenseState(np.array([1.0, 0.0], dtype=complex), 1, 2)
        basis = all_z(1)
        assert abs(dense_probability(state, basis, [0.5]) - 1.0) < 1e-12
        assert dense_probability(state, basis, [-0.5]) == 0.0

    def test_x_basis_half(self):
        state = DenseState(np.array([1.0, 0.0], dtype=complex), 1, 2)
        basis = (np.array([np.pi / 2]), np.array([0.0]))
        for m in (0.5, -0.5):
            assert abs(dense_probability(state, basis, [m]) - 0.5) < 1e-12

    def test_completeness(self, rng):
        state = random_dense(4, rng)
        basis = sample_bases(1, 4, rng)
        p = dense_probabilities(state, basis)
        assert abs(p.sum() - 1.0) < 1e-12
        # spot-check agreement between the table and single evaluations
        for v in (0, 7, 13):
            ms = [0.5 - ((v >> (3 - j)) & 1) for j in range(4)]
            assert abs(dense_probability(state, basis, ms) - p[v]) < 1e-12

    def test_matches_mps_amplitudes(self, rng):
        for n in (3, 5):
            target = random_target(n, 3, seed=n)
            dense = DenseState.from_mps(target)
            basis = sample_bases(1, n, rng)
            for v in rng.integers(0, 2**n, size=6):
                ms = [0.5 - ((int(v) >> (n - 1 - j)) & 1) for j in range(n)]
                p_mps = shot_probability(target, basis, ms)
                assert abs(dense_probability(dense, basis, ms) - p_mps) < 1e-10

    @pytest.mark.parametrize(
        "basis_sites, outcomes",
        [(4, [0.5, -0.5, -0.5]), (2, [0.5, -0.5, -0.5]), (3, [0.5, -0.5])],
        ids=["basis-4-sites", "basis-2-sites", "2-outcomes"],
    )
    def test_rejects_lengths_other_than_n(self, basis_sites, outcomes):
        state = DenseState.from_mps(w_state(3))
        with pytest.raises(ParameterError, match="basis length does not match the state"):
            dense_probability(state, all_z(basis_sites), outcomes)


class TestKlDivergence:
    def test_identical_states_zero(self, rng):
        state = random_dense(3, rng)
        assert abs(kl_divergence(state, state, 5, rng)) < 1e-10

    def test_non_negative(self, rng):
        for _ in range(5):
            p = random_dense(3, rng)
            q = random_dense(3, rng)
            assert kl_divergence(p, q, 10, rng) > -1e-10

    def test_pinsker_bound_per_basis(self, rng):
        for _ in range(5):
            p_state = random_dense(3, rng)
            q_state = random_dense(3, rng)
            basis = sample_bases(1, 3, rng)
            p = dense_probabilities(p_state, basis)
            q = dense_probabilities(q_state, basis)
            mask = p > 0
            kl = float(np.sum(p[mask] * np.log(p[mask] / np.maximum(q[mask], 1e-300))))
            tv = 0.5 * np.abs(p - q).sum()
            assert kl >= 2 * tv * tv - 1e-12


class TestFixedBasisReconstruct:
    def test_plus_state_exact(self):
        state = plus_state(2)
        tables = fixed_basis_probabilities(state)
        rebuilt = fixed_basis_reconstruct(tables, 2)
        f = abs(np.vdot(rebuilt.coefficients, state.coefficients))
        assert f >= 1.0 - 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_random_states(self, seed):
        rng = np.random.default_rng(1000 + seed)
        state = random_dense(5, rng, floor=0.01)
        tables = fixed_basis_probabilities(state)
        rebuilt = fixed_basis_reconstruct(tables, 5)
        f = abs(np.vdot(rebuilt.coefficients, state.coefficients))
        assert f >= 1.0 - 1e-8

    def test_singlet_disconnected(self):
        c = np.zeros(4, dtype=complex)
        c[0b01] = 1 / np.sqrt(2)
        c[0b10] = -1 / np.sqrt(2)
        state = DenseState(c, 2, 2)
        tables = fixed_basis_probabilities(state)
        with pytest.raises(PartialReconstructionError) as err:
            fixed_basis_reconstruct(tables, 2)
        assert len(err.value.components) == 2
        assert sorted(map(tuple, err.value.components)) == [(0b01,), (0b10,)]

    def test_w_state_from_mps_tables(self):
        state = DenseState.from_mps(w_state(3, 0.2))
        tables = fixed_basis_probabilities(state)
        # zero amplitudes on non-one-hot strings: graph restricted to the
        # three one-hot vertices, which are pairwise non-adjacent
        with pytest.raises(PartialReconstructionError) as err:
            fixed_basis_reconstruct(tables, 3)
        assert len(err.value.components) == 3

    def test_bad_table_shapes(self):
        with pytest.raises(ParameterError):
            fixed_basis_reconstruct([np.ones(4)] * 3, 2)


class TestDenseState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ParameterError):
            DenseState(np.array([1.0, 1.0], dtype=complex), 1, 2)

    def test_from_mps(self):
        state = DenseState.from_mps(w_state(4, 0.0))
        assert state.n_sites == 4
        assert abs(np.linalg.norm(state.coefficients) - 1) < 1e-12
