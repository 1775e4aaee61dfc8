import numpy as np
import pytest

from mpstomo import (
    ParameterError,
    TargetSpec,
    build_target,
    cluster_state,
    dimer_state,
    random_target,
    w_state,
)

from conftest import kron_all

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_I = np.eye(2, dtype=complex)


class TestWState:
    def test_amplitudes_at_theta_zero(self):
        vec = w_state(3, 0.0).to_dense()
        hot = {0b100, 0b010, 0b001}
        for v in range(8):
            expect = 1 / np.sqrt(3) if v in hot else 0.0
            assert abs(vec[v] - expect) < 1e-12

    def test_phase_ratio(self):
        theta = 0.1
        vec = w_state(2, theta).to_dense()
        a10, a01 = vec[0b10], vec[0b01]  # site 0 is the most significant digit
        assert abs(a10 / a01 - np.exp(-1j * theta)) < 1e-12

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_normalized(self, n):
        assert abs(np.linalg.norm(w_state(n, 0.3).to_dense()) - 1) < 1e-10

    def test_bond_dims(self):
        assert all(d <= 2 for d in w_state(7, 0.2).bond_dims)


class TestClusterState:
    def test_two_sites_dense(self):
        np.testing.assert_allclose(
            cluster_state(2).to_dense(), np.array([1, 1, 1, -1]) / 2.0, atol=1e-12
        )

    def test_stabilizer_expectation(self):
        # Z at site 0, X at site 1, Z at site 2 on a 4-site chain
        vec = cluster_state(4).to_dense()
        op = kron_all([_Z, _X, _Z, _I])
        val = np.vdot(vec, op @ vec).real
        assert abs(val - 1.0) < 1e-10

    def test_bulk_sites_maximally_mixed(self):
        n = 5
        vec = cluster_state(n).to_dense().reshape((2,) * n)
        for site in range(1, n - 1):
            t = np.moveaxis(vec, site, 0).reshape(2, -1)
            rho = t @ t.conj().T
            np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-10)

    def test_bond_dims(self):
        assert all(d <= 2 for d in cluster_state(6).bond_dims)


class TestDimerState:
    def test_singlet_dense(self):
        np.testing.assert_allclose(
            dimer_state(2).to_dense(), np.array([0, 1, -1, 0]) / np.sqrt(2), atol=1e-12
        )

    def test_entropy_pattern(self):
        m = dimer_state(6)
        assert abs(m.renyi2_entropy(0) - np.log(2)) < 1e-10  # inside a dimer
        assert abs(m.renyi2_entropy(1)) < 1e-10  # between dimers
        assert abs(m.renyi2_entropy(2) - np.log(2)) < 1e-10

    def test_rejects_odd(self):
        with pytest.raises(ParameterError):
            dimer_state(5)

    def test_bond_dims_alternate(self):
        assert dimer_state(6).bond_dims == [2, 1, 2, 1, 2]


class TestRandomTarget:
    def test_bond_one_is_product(self):
        m = random_target(4, 1, seed=5)
        for k in range(3):
            assert abs(m.renyi2_entropy(k)) < 1e-10

    def test_exact_bond_profile(self):
        m = random_target(6, 4, seed=5)
        assert m.bond_dims == [2, 4, 4, 4, 2]
        assert max(m.bond_dims) == 4

    def test_seeds_give_distinct_states(self):
        pairs = 0
        for s in range(20):
            a = random_target(5, 3, seed=2 * s)
            b = random_target(5, 3, seed=2 * s + 1)
            f = abs(np.vdot(a.to_dense(), b.to_dense()))
            assert abs(f - a.fidelity_distance(b)[0]) < 1e-10
            if f < 0.99:
                pairs += 1
        assert pairs == 20

    def test_deterministic(self):
        a = random_target(5, 3, seed=11)
        b = random_target(5, 3, seed=11)
        for k in range(5):
            np.testing.assert_array_equal(a.tensor(k), b.tensor(k))


class TestTargetSpec:
    def test_build_dispatch(self):
        assert build_target(TargetSpec("w", 4, theta=0.2)).n_sites == 4
        assert build_target(TargetSpec("Cluster", 4)).n_sites == 4
        assert build_target(TargetSpec("dimer", 4)).n_sites == 4
        assert build_target(TargetSpec("random", 4, d_max=2)).n_sites == 4

    def test_validation(self):
        with pytest.raises(ParameterError):
            TargetSpec("dimer", 5)
        with pytest.raises(ParameterError):
            TargetSpec("nope", 4)
        with pytest.raises(ParameterError):
            TargetSpec("w", 4, theta=float("nan"))
        with pytest.raises(ParameterError):
            TargetSpec("random", 4, d_max=0)

    @pytest.mark.parametrize("kind", ["W", "Cluster", "Dimer", "Random"])
    def test_all_normalized(self, kind):
        m = build_target(TargetSpec(kind, 6, theta=0.1, d_max=3, seed=2))
        assert abs(m.norm() - 1.0) < 1e-10
