import numpy as np
import pytest

from mpstomo import (
    EstimateOutOfRegime,
    ParameterError,
    StageRecord,
    estimate_fidelity,
    fit_power_law,
    per_site_fidelity,
    r_succ,
    random_target,
)
from mpstomo.estimation import PowerLawFit, tail_ratio


def history_from_law(coeff, alpha, replicas, noise=None, rng=None):
    hist = []
    for v in replicas:
        r = coeff * v**alpha
        if noise:
            r *= float(np.exp(noise * rng.standard_normal()))
        hist.append(StageRecord(replicas=v, nll=1.0, r_real=r, r_succ=r))
    return hist


class TestRSucc:
    def test_identical(self):
        m = random_target(5, 3, seed=1)
        assert r_succ(m, m) < 1e-6

    def test_orthogonal(self):
        import numpy as np

        from mpstomo import MatrixProductState

        up = np.array([1.0, 0.0]).reshape(1, 2, 1)
        down = np.array([0.0, 1.0]).reshape(1, 2, 1)
        a = MatrixProductState([up, up])
        b = MatrixProductState([down, down])
        assert abs(r_succ(a, b) - 1 / np.sqrt(2)) < 1e-12

    def test_matches_dense(self):
        a = random_target(5, 3, seed=2)
        b = random_target(5, 3, seed=3)
        f = abs(np.vdot(a.to_dense(), b.to_dense()))
        assert abs(r_succ(a, b) - np.sqrt((1 - f * f) / 2)) < 1e-10


class TestFitPowerLaw:
    def test_exact_recovery(self):
        hist = history_from_law(3.0, -0.5, [100, 200, 400, 800, 1600, 3200])
        fit = fit_power_law(hist, "r_real")
        assert abs(fit.coeff - 3.0) < 1e-9
        assert abs(fit.alpha + 0.5) < 1e-9
        assert fit.residual < 1e-12

    def test_noisy_recovery(self):
        rng = np.random.default_rng(10)
        misses = 0
        for _ in range(50):
            hist = history_from_law(
                2.0, -0.7, np.logspace(2, 4, 12).astype(int), noise=0.05, rng=rng
            )
            fit = fit_power_law(hist, "r_real", tail_fraction=1.0)
            if abs(fit.alpha + 0.7) > 0.05:
                misses += 1
        assert misses == 0

    def test_scale_equivariance(self):
        hist = history_from_law(1.3, -0.8, [128, 256, 512, 1024, 2048])
        scaled = [
            StageRecord(replicas=r.replicas, nll=r.nll, r_real=5.0 * r.r_real)
            for r in hist
        ]
        a = fit_power_law(hist, "r_real")
        b = fit_power_law(scaled, "r_real")
        assert abs(b.coeff - 5.0 * a.coeff) < 1e-9
        assert abs(b.alpha - a.alpha) < 1e-12

    def test_requires_four_points(self):
        hist = history_from_law(1.0, -0.5, [100, 200, 400])
        with pytest.raises(ParameterError):
            fit_power_law(hist, "r_real", tail_fraction=1.0)

    def test_tail_window_and_min_replicas(self):
        hist = history_from_law(1.0, -0.5, [10, 50, 150, 300, 600, 1200, 2400, 4800])
        fit = fit_power_law(hist, "r_real", tail_fraction=0.5, min_replicas=100)
        # 6 stages qualify; the last 3 are 1200, 2400, 4800 -> too few
        assert fit.window[0] >= 2

    def test_missing_field_stages_skipped(self):
        hist = history_from_law(2.0, -1.0, [100, 200, 400, 800, 1600])
        hist[0].r_succ = None
        fit = fit_power_law(hist, "r_succ", tail_fraction=1.0)
        assert abs(fit.alpha + 1.0) < 1e-9


class TestEstimateFidelity:
    def test_formula_values(self):
        r_est, f_est = estimate_fidelity(1.0, 0.005)
        assert abs(r_est - 0.07071067811865475) < 1e-12
        assert abs(f_est - 0.99498743710662) < 1e-12

    def test_zero_distance(self):
        _, f_est = estimate_fidelity(2.0, 0.0)
        assert f_est == 1.0

    def test_monotone_in_distance(self):
        values = [estimate_fidelity(1.0, r)[1] for r in np.linspace(0, 0.4, 20)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_out_of_regime(self):
        with pytest.raises(EstimateOutOfRegime):
            estimate_fidelity(1.0, 0.75)

    def test_validation(self):
        with pytest.raises(ParameterError):
            estimate_fidelity(-1.0, 0.1)
        with pytest.raises(ParameterError):
            estimate_fidelity(1.0, -0.1)


class TestPerSiteFidelity:
    def test_root(self):
        assert per_site_fidelity(0.5, 10) == pytest.approx(0.5 ** 0.1)

    def test_dominates_global(self):
        for f in (0.1, 0.5, 0.9, 1.0):
            for n in (1, 3, 12):
                assert per_site_fidelity(f, n) >= f


class TestTailRatio:
    def test_constant_law(self):
        hist = []
        for v in [200, 400, 800, 1600, 3200]:
            hist.append(
                StageRecord(replicas=v, nll=1.0, r_real=2.0 * v**-0.5, r_succ=4.0 / v)
            )
        assert abs(tail_ratio(hist, 1.0, 100) - 1.0) < 1e-12

    def test_needs_usable_stages(self):
        hist = [StageRecord(replicas=50, nll=1.0)]
        with pytest.raises(ParameterError):
            tail_ratio(hist)
