import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import chisquare

from mpstomo import (
    Dataset,
    DegenerateStateError,
    FormatError,
    MatrixProductState,
    ParameterError,
    TargetSpec,
    build_target,
    draw_shots,
    fixed_bases,
    measure_batch,
    random_init,
    random_target,
    sample_bases,
    w_state,
)
from mpstomo.oracle import DenseState, dense_probabilities
from mpstomo.rotations import rotation_matrices, spin_operators, wigner_d_matrix

from conftest import all_z, one_shot_dataset, shot_probability


def outcome_codes(dataset):
    n = dataset.n_sites
    weights = dataset.local_dim ** np.arange(n - 1, -1, -1)
    return (dataset.outcome_indices * weights).sum(axis=1)


class TestWignerD:
    def test_spin_half_elements(self):
        # index p = S - m: m = +1/2 is row/column 0, m = -1/2 is 1
        for theta in (0.0, 0.4, 1.7, 3.0):
            d = wigner_d_matrix(0.5, theta)
            assert abs(d[0, 0] - np.cos(theta / 2)) < 1e-12
            assert abs(d[1, 0] - np.sin(theta / 2)) < 1e-12
            assert abs(d[0, 1] + np.sin(theta / 2)) < 1e-12

    def test_identity_at_zero(self):
        for s in (0.5, 1.0, 1.5):
            np.testing.assert_array_equal(wigner_d_matrix(s, 0.0), np.eye(int(2 * s) + 1))

    def test_spin_one_quarter_turn_orthogonal(self):
        d = wigner_d_matrix(1.0, np.pi / 2)
        np.testing.assert_allclose(d @ d.T, np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
    def test_matches_matrix_exponential(self, s):
        _, sy, _ = spin_operators(s)
        for theta in (0.3, 1.1, 2.8, -0.9):
            np.testing.assert_allclose(
                wigner_d_matrix(s, theta), expm(-1j * theta * sy).real, atol=1e-12
            )

    def test_composition(self, rng):
        for s in (0.5, 1.0, 1.5):
            t1, t2 = rng.uniform(0, np.pi, 2)
            lhs = wigner_d_matrix(s, t1) @ wigner_d_matrix(s, t2)
            np.testing.assert_allclose(lhs, wigner_d_matrix(s, t1 + t2), atol=1e-10)


class TestRotationMatrix:
    def test_z_direction_exact_identity(self):
        np.testing.assert_array_equal(rotation_matrices(0.0, 0.0, 0.5), np.eye(2))
        np.testing.assert_array_equal(rotation_matrices(0.0, 2.1, 0.5), np.eye(2))

    def test_x_direction_columns(self):
        u = rotation_matrices(np.pi / 2, 0.0, 0.5)
        # columns of U^dagger are the x eigenstates
        assert abs(abs(u.conj().T[0, 0]) ** 2 - 0.5) < 1e-12

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
    def test_unitary(self, s, rng):
        q = int(2 * s) + 1
        for _ in range(5):
            u = rotation_matrices(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi), s)
            np.testing.assert_allclose(u @ u.conj().T, np.eye(q), atol=1e-12)

    @pytest.mark.parametrize("s", [0.5, 1.0])
    def test_maps_spin_direction_eigenvectors_to_z(self, s, rng):
        sx, sy, sz = spin_operators(s)
        q = int(2 * s) + 1
        for _ in range(5):
            th = rng.uniform(0, np.pi)
            ph = rng.uniform(0, 2 * np.pi)
            u = rotation_matrices(th, ph, s)
            ns = np.sin(th) * np.cos(ph) * sx + np.sin(th) * np.sin(ph) * sy + np.cos(th) * sz
            evals, evecs = np.linalg.eigh(ns)
            for i, m in enumerate(evals):
                p = round(s - m)
                out = u @ evecs[:, i]
                assert abs(abs(out[p]) - 1.0) < 1e-10

    def test_batch_matches_single(self, rng):
        thetas = rng.uniform(0, np.pi, 7)
        phis = rng.uniform(0, 2 * np.pi, 7)
        batch = rotation_matrices(thetas, phis, 0.5)
        for i in range(7):
            np.testing.assert_allclose(batch[i], rotation_matrices(thetas[i], phis[i], 0.5), atol=1e-14)


class TestSampleBasis:
    def test_uniform_direction_statistics(self):
        rng = np.random.default_rng(7)
        thetas, phis = sample_bases(100_000, 1, rng)
        nx = np.sin(thetas) * np.cos(phis)
        ny = np.sin(thetas) * np.sin(phis)
        nz = np.cos(thetas)
        for comp in (nx, ny, nz):
            assert abs(comp.mean()) < 0.02
        assert abs(np.cos(thetas).mean()) < 0.02

    def test_deterministic(self):
        a = sample_bases(1, 5, np.random.default_rng(3))
        b = sample_bases(1, 5, np.random.default_rng(3))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_angle_ranges(self):
        rng = np.random.default_rng(0)
        thetas, phis = sample_bases(1000, 3, rng)
        assert thetas.min() >= 0 and thetas.max() <= np.pi
        assert phis.min() >= 0 and phis.max() < 2 * np.pi


class TestDrawShot:
    def test_deterministic_product_target(self):
        up = np.array([1.0, 0.0]).reshape(1, 2, 1)
        target = MatrixProductState([up] * 4)
        rng = np.random.default_rng(2)
        ds = draw_shots(target, all_z(4), 500, rng)
        assert np.all(ds.outcome_indices == 0)

    def test_w2_z_basis_probabilities(self):
        target = w_state(2, 0.0)
        rng = np.random.default_rng(5)
        ds = draw_shots(target, all_z(2), 100_000, rng)
        freq = np.bincount(outcome_codes(ds), minlength=4) / len(ds)
        assert freq[0b00] == 0.0 and freq[0b11] == 0.0
        assert abs(freq[0b01] - 0.5) < 0.01
        assert abs(freq[0b10] - 0.5) < 0.01

    def test_total_variation_vs_dense(self):
        rng = np.random.default_rng(11)
        target = random_target(5, 3, seed=8)
        dense = DenseState.from_mps(target)
        for _ in range(3):
            basis = sample_bases(1, 5, rng)
            ds = draw_shots(target, basis, 200_000, rng)
            emp = np.bincount(outcome_codes(ds), minlength=32) / len(ds)
            p = dense_probabilities(dense, basis)
            assert 0.5 * np.abs(emp - p).sum() < 0.02

    def test_chi_square_vs_dense(self):
        rng = np.random.default_rng(13)
        target = random_target(4, 3, seed=9)
        dense = DenseState.from_mps(target)
        basis = sample_bases(1, 4, rng)
        count = 200_000
        ds = draw_shots(target, basis, count, rng)
        obs = np.bincount(outcome_codes(ds), minlength=16).astype(float)
        p = dense_probabilities(dense, basis)
        keep = p * count >= 5
        obs_k, exp_k = obs[keep], p[keep] * count
        if not np.all(keep):
            obs_k = np.append(obs_k, obs[~keep].sum())
            exp_k = np.append(exp_k, p[~keep].sum() * count)
        # normalize away the tiny probability mass lost to rounding
        exp_k *= obs_k.sum() / exp_k.sum()
        _, pvalue = chisquare(obs_k, exp_k)
        assert pvalue > 1e-3

    def test_shared_basis_matches_per_shot_angles(self):
        # a shared basis rotates each site once; the outcomes must equal those
        # of the same basis spelled out per shot, bit for bit
        target = random_target(5, 3, seed=8)
        basis = sample_bases(1, 5, np.random.default_rng(3))
        count = 20_000
        per_shot = [np.tile(a, (count, 1)) for a in basis]
        a = draw_shots(target, basis, count, np.random.default_rng(12), epsilon=0.1)
        b = draw_shots(target, per_shot, count, np.random.default_rng(12), epsilon=0.1)
        np.testing.assert_array_equal(a.outcome_indices, b.outcome_indices)
        np.testing.assert_array_equal(a.thetas, b.thetas)
        np.testing.assert_array_equal(a.phis, b.phis)

    def test_shared_basis_rotates_each_site_once(self, monkeypatch):
        shapes = []

        def recording(thetas, phis, spin):
            shapes.append((np.shape(thetas), np.shape(phis)))
            return rotation_matrices(thetas, phis, spin)

        monkeypatch.setattr("mpstomo.measurement.rotation_matrices", recording)
        basis = sample_bases(1, 5, np.random.default_rng(3))
        draw_shots(random_target(5, 3, seed=8), basis, 1000, np.random.default_rng(12))
        assert shapes == [((1,), (1,))] * 5

    @pytest.mark.parametrize(
        "theta, phi, shape",
        [(4.0, 7.0, (4, 3)), (-0.1, 1.0, (4, 3)), (1.0, 2 * np.pi, (4, 3)), (1.0, -1.0, (4, 3)),
         (np.nan, 1.0, (4, 3)), (1.0, np.nan, (4, 3)),
         (4.0, 1.0, (3,)), (1.0, 2 * np.pi, (3,)), (np.nan, 1.0, (3,)), (1.0, np.nan, (3,))],
        ids=["both-high", "theta-negative", "phi-2pi", "phi-negative", "theta-nan", "phi-nan",
             "shared-theta-high", "shared-phi-2pi", "shared-theta-nan", "shared-phi-nan"],
    )
    def test_rejects_angles_the_shot_file_rejects(self, monkeypatch, theta, phi, shape):
        # refused before any rotation is made, so no NaN reaches the sampler
        def refused(*args):
            raise AssertionError("rotation made for angles draw_shots refuses")

        monkeypatch.setattr("mpstomo.measurement.rotation_matrices", refused)
        angles = (np.full(shape, theta), np.full(shape, phi))
        message = "theta out of [0, pi]" if not 0 <= theta <= np.pi else "phi out of [0, 2 pi)"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ParameterError, match=re.escape(message)):
                draw_shots(w_state(3), angles, 4, np.random.default_rng(0))

    def test_degenerate_state_error(self):
        t = np.zeros((1, 2, 1), dtype=complex)
        broken = MatrixProductState([t, t.copy()])
        with pytest.raises(DegenerateStateError):
            draw_shots(broken, all_z(2), 3, np.random.default_rng(0))


class TestDepolarizingNoise:
    def test_zero_epsilon_identical_stream(self):
        target = w_state(3, 0.1)
        basis = all_z(3)
        a = draw_shots(target, basis, 50, np.random.default_rng(9))
        b = draw_shots(target, basis, 50, np.random.default_rng(9), epsilon=0.0)
        np.testing.assert_array_equal(a.outcome_indices, b.outcome_indices)

    def test_full_noise_uniform(self):
        target = w_state(3, 0.0)
        rng = np.random.default_rng(21)
        count = 80_000
        ds = draw_shots(target, all_z(3), count, rng, epsilon=1.0)
        freq = np.bincount(outcome_codes(ds), minlength=8) / count
        sigma = np.sqrt(0.125 * 0.875 / count)
        assert np.all(np.abs(freq - 0.125) < 3.5 * sigma + 1e-12)

    def test_half_noise_mixture(self):
        up = np.array([1.0, 0.0]).reshape(1, 2, 1)
        target = MatrixProductState([up, up])
        rng = np.random.default_rng(17)
        count = 100_000
        ds = draw_shots(target, all_z(2), count, rng, epsilon=0.5)
        p00 = np.mean(outcome_codes(ds) == 0)
        assert abs(p00 - 0.625) < 0.01

    def test_epsilon_validation(self):
        with pytest.raises(ParameterError):
            draw_shots(
                w_state(2, 0.0), all_z(2), 1, np.random.default_rng(0), epsilon=1.5
            )


class TestFixedBases:
    def test_single_site(self):
        bases = fixed_bases(1)
        assert len(bases) == 3
        np.testing.assert_allclose(bases[0][0], [0.0])
        np.testing.assert_allclose(bases[1][0], [np.pi / 2])
        np.testing.assert_allclose(bases[1][1], [0.0])
        np.testing.assert_allclose(bases[2][1], [np.pi / 2])

    def test_count_and_sparsity(self):
        bases = fixed_bases(4)
        assert len(bases) == 9
        for thetas, _ in bases:
            assert np.count_nonzero(thetas) <= 1

    def test_directions_exact(self):
        for thetas, phis in fixed_bases(3):
            for th, ph in zip(thetas, phis):
                assert (th, ph) in {(0.0, 0.0), (np.pi / 2, 0.0), (np.pi / 2, np.pi / 2)}


class TestDataset:
    def test_append_and_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        target = w_state(4, 0.2)
        ds = Dataset(4, 2)
        for _ in range(5):
            ds.extend(draw_shots(target, sample_bases(1, 4, rng), 1, rng))
        assert len(ds) == 5
        path = tmp_path / "shots.txt"
        ds.to_file(path)
        loaded = Dataset.from_file(path, 2)
        np.testing.assert_array_equal(loaded.outcome_indices, ds.outcome_indices)
        np.testing.assert_allclose(loaded.thetas, ds.thetas, atol=0)
        np.testing.assert_allclose(loaded.phis, ds.phis, atol=0)

    def test_file_format(self, tmp_path):
        ds = one_shot_dataset([0.5, 1.5], [0.25, 6.0], [0.5, -0.5])
        path = tmp_path / "shots.txt"
        ds.to_file(path)
        line = path.read_text().strip()
        fields = line.split(";")
        assert len(fields) == 2
        theta, phi, twice_m = fields[0].split(",")
        assert float(theta) == 0.5 and float(phi) == 0.25 and int(twice_m) == 1
        assert int(fields[1].split(",")[2]) == -1
        # >= 12 significant digits survive the roundtrip
        assert float(fields[1].split(",")[0]) == 1.5
        # the exact text: repr of each float, in exponent form below 1e-4,
        # and 2m over the whole range for q = 3 and q = 4
        pinned = {3: Dataset(3, 3), 4: Dataset(4, 4)}
        pinned[3].extend_raw(
            [[0.0, np.pi, 1e-4], [9.5e-5, 1.5e-300, 2.0]],
            [[np.nextafter(2 * np.pi, 0), 0.0, 1e-7], [3.0, 0.5, 1.25]],
            [[0, 1, 2], [2, 1, 0]],
        )
        pinned[4].extend_raw([[0.1, 0.2, 0.3, 0.4]], [[1.0, 2.0, 4.0, 6.0]], [[0, 1, 2, 3]])
        expected = {
            3: "0.0,6.283185307179585,2;3.141592653589793,0.0,0;0.0001,1e-07,-2\n"
               "9.5e-05,3.0,-2;1.5e-300,0.5,0;2.0,1.25,2\n",
            4: "0.1,1.0,3;0.2,2.0,1;0.3,4.0,-1;0.4,6.0,-3\n",
        }
        for q, ds in pinned.items():
            ds.to_file(path)
            assert path.read_text() == expected[q]

    @pytest.mark.parametrize(
        "thetas, phis, idx, message",
        [
            ([0.1, 3.5], [0.2, 0.3], [0, 1], "theta out of"),
            ([0.1, -1e-9], [0.2, 0.3], [0, 1], "theta out of"),
            ([0.1, np.nan], [0.2, 0.3], [0, 1], "theta out of"),
            ([0.1, 0.2], [0.2, 2 * np.pi], [0, 1], "phi out of"),
            ([0.1, 0.2], [-0.2, 0.3], [0, 1], "phi out of"),
            ([0.1, 0.2], [0.2, np.inf], [0, 1], "phi out of"),
            ([0.1, 0.2], [0.2, 0.3], [0, -1], r"outcome index out of \[0, 2\)"),
            ([0.1, 0.2], [0.2, 0.3], [5, 1], r"outcome index out of \[0, 2\)"),
        ],
        ids=["theta-high", "theta-negative", "theta-nan", "phi-2pi", "phi-negative", "phi-inf",
             "index-negative", "index-high"],
    )
    def test_extend_raw_rejects_what_the_shot_file_rejects(self, thetas, phis, idx, message):
        ds = Dataset(2, 2)
        ds.extend_raw([[0.0, np.pi]], [[0.0, 1.0]], [[1, 0]])
        ds.extend_raw(np.empty((0, 2)), np.empty((0, 2)), np.empty((0, 2)))  # empty batches pass
        with pytest.raises(ParameterError, match=message):
            ds.extend_raw([thetas], [phis], [idx])
        assert len(ds) == 1

    def test_rejects_mismatched_shot(self):
        ds = Dataset(3, 2)
        with pytest.raises(ParameterError):
            ds.extend(one_shot_dataset([0.0, 0.0], [0.0, 0.0], [0.5, 0.5]))
        assert len(ds) == 0

    @pytest.mark.parametrize(
        "bad_line, message",
        [
            ("0.1,0.2,1;0.3,0.4,-1;0.5,0.6,1", "3 sites, expected 2"),
            ("0.1,0.2,1;0.3,0.4,0", "parity"),
            ("0.1,nan,1;0.3,0.4,-1", "non-finite"),
            ("0.1,0.2,1;inf,0.4,-1", "non-finite"),
            ("9.0,-3.0,1;0.3,0.4,-1", "theta out of"),
            ("0.1,0.2,1;0.3,6.5,-1", "phi out of"),
            ("0.1,0.2,1;0.3,-0.4,-1", "phi out of"),
            ("0.1,0.2,1,99;0.3,0.4,-1", "theta,phi,2m"),
            ("0.1,0.2;0.3,0.4,-1", "theta,phi,2m"),
        ],
        ids=["ragged", "parity", "nan", "inf", "theta-range", "phi-high", "phi-negative",
             "extra-field", "missing-field"],
    )
    def test_from_file_rejects_bad_line(self, tmp_path, bad_line, message):
        path = tmp_path / "shots.txt"
        path.write_text(f"0.1,0.2,1;0.3,0.4,-1\n\n{bad_line}\n0.1,0.2,1;0.3,0.4,1\n")
        with pytest.raises(FormatError, match=f"line 3: .*{message}"):
            Dataset.from_file(path, 2)

    def test_normalization_invariant_over_random_bases(self, rng):
        target = random_init(5, 2, 3, seed=2)
        for _ in range(3):
            basis = sample_bases(1, 5, rng)
            total = 0.0
            for v in range(2**5):
                ms = [0.5 - ((v >> (4 - j)) & 1) for j in range(5)]
                total += shot_probability(target, basis, ms)
            assert abs(total - 1.0) < 1e-9


def _peak_mb(fn, *args):
    """fn(*args) and the peak of the memory it held at once, in MB; numpy
    reports its array allocations to tracemalloc."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / 1e6


class TestMemory:
    # 2 x 10^4 noisy shots of a Random N=16, D=8 target, the size of the
    # shots_io benchmark: 7.7 MB of shot arrays.  Sampling and reading peak
    # at 28.2 and 15.6 MB; holding every site's rotations, or a second copy
    # of the shot arrays, at once would take them to 52.5 and 28.6 MB.

    @pytest.fixture(scope="class")
    def target(self):
        return build_target(TargetSpec("Random", 16, d_max=8, seed=1))

    def test_sampling_holds_one_site_of_rotations(self, target):
        ds, peak = _peak_mb(measure_batch, target, 20_000, 0.02, np.random.default_rng(1))
        assert len(ds) == 20_000
        assert peak < 34.0

    def test_reading_keeps_one_copy_of_the_shots(self, target, tmp_path):
        ds = measure_batch(target, 20_000, 0.02, np.random.default_rng(1))
        path = tmp_path / "shots.txt"
        ds.to_file(path)
        back, peak = _peak_mb(Dataset.from_file, path, 2)
        assert back.outcome_indices.tobytes() == ds.outcome_indices.tobytes()
        assert peak < 19.0
