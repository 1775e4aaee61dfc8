import weakref
from dataclasses import replace

import numpy as np
import pytest

from mpstomo import (
    Dataset,
    LossReport,
    MatrixProductState,
    ParameterError,
    TrainConfig,
    draw_shots,
    measure_batch,
    nll,
    random_init,
    random_target,
    train_stage,
    w_state,
)
from mpstomo import training
from mpstomo.mps import max_canonical_defect, outcome_indices
from mpstomo.oracle import DenseState, dense_probability

from conftest import all_z, bond_objective, one_shot_dataset


def product_state(n):
    up = np.array([1.0, 0.0]).reshape(1, 2, 1)
    return MatrixProductState([up] * n)


def fd_gradient(obj, merged, h=1e-5):
    """Central finite differences of the bond loss, packed as the
    conjugate-derivative ascent direction for comparison."""
    out = np.zeros_like(merged)
    it = np.nditer(merged, flags=["multi_index"])
    for _ in it:
        ix = it.multi_index
        for unit in (1.0, 1j):
            plus = merged.copy()
            plus[ix] += unit * h
            minus = merged.copy()
            minus[ix] -= unit * h
            deriv = (obj.loss(plus) - obj.loss(minus)) / (2 * h)
            out[ix] += unit * (-deriv / 2.0)
    return out


class TestNll:
    def test_certain_outcome(self):
        ds = one_shot_dataset([0.0], [0.0], [0.5])
        assert abs(nll(product_state(1), ds)) < 1e-12

    def test_x_basis_half_probability(self):
        ds = one_shot_dataset([np.pi / 2], [0.0], [0.5])
        assert abs(nll(product_state(1), ds) - np.log(2)) < 1e-12

    def test_matches_dense_oracle(self, rng):
        target = random_target(4, 2, seed=3)
        ds = measure_batch(target, 100, 0.0, rng)
        model = random_init(4, 2, 3, seed=5)
        dense = DenseState.from_mps(model)
        expect = 0.0
        for i in range(len(ds)):
            basis = (ds.thetas[i], ds.phis[i])
            expect -= np.log(dense_probability(dense, basis, ds.spin - ds.outcome_indices[i]))
        expect /= len(ds)
        assert abs(nll(model, ds) - expect) < 1e-10

    def test_empty_dataset(self):
        with pytest.raises(ParameterError):
            nll(product_state(2), Dataset(2, 2))


class TestLossWithPenalty:
    def test_report_invariant(self):
        rep = LossReport(1.25, 0.5, 0.3)
        assert abs(rep.total - (rep.nll + rep.lam * rep.penalty)) < 1e-12


class TestTwoSiteGradient:
    @pytest.mark.parametrize("lam", [0.0, 0.1])
    def test_matches_finite_differences(self, lam):
        rng = np.random.default_rng(77)
        cases = []
        for trial in range(10):
            n = int(rng.integers(2, 6))
            d = int(rng.integers(2, 5))
            target = random_target(n, min(d, 2 ** (n // 2)), seed=trial)
            ds = measure_batch(target, 50, 0.0, rng)
            model = random_init(n, 2, d, seed=trial + 50)
            cases.append((f"trial {trial}", model, int(rng.integers(0, n - 1)), ds))
        # the (4, 2, 2, 4) bond of a random N=6 model, wider than the trials reach
        ds = measure_batch(random_target(6, 2, seed=3), 50, 0.0, rng)
        cases.append(("N=6 D=4", random_init(6, 2, 4, seed=11), 2, ds))
        for name, model, bond, ds in cases:
            obj, merged = bond_objective(model, bond, ds, lam)
            grad = obj.gradient(merged)
            fd = fd_gradient(obj, merged)
            rel = np.linalg.norm(fd - grad) / np.linalg.norm(grad)
            assert rel < 1e-5, f"{name}: rel={rel}"
        assert merged.shape == (4, 2, 2, 4)

    def test_norm_direction_component_vanishes(self, rng):
        target = random_target(4, 2, seed=9)
        ds = measure_batch(target, 60, 0.0, rng)
        obj, merged = bond_objective(random_init(4, 2, 3, seed=1), 1, ds, 0.0)
        grad = obj.gradient(merged)
        ip = np.vdot(grad, merged)
        assert abs(ip.real) < 1e-9

    def test_stationary_at_data_generating_state(self):
        rng = np.random.default_rng(8)
        target = random_target(4, 2, seed=4).canonicalize(1)
        ds = measure_batch(target, 10_000, 0.0, rng)
        obj, merged = bond_objective(target, 1, ds, 0.0)
        grad = obj.gradient(merged)
        assert np.linalg.norm(grad) < 0.1

    def test_unnormalized_merged_tensor(self, rng):
        # the -N'/N terms must handle arbitrary scale
        target = random_target(3, 2, seed=2)
        ds = measure_batch(target, 40, 0.0, rng)
        obj, merged = bond_objective(random_init(3, 2, 2, seed=3), 0, ds, 0.1)
        merged = 3.7 * merged
        rel = np.linalg.norm(fd_gradient(obj, merged) - obj.gradient(merged))
        rel /= np.linalg.norm(obj.gradient(merged))
        assert rel < 1e-5

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    def test_passed_point_matches_a_fresh_one(self, rng, lam):
        target = random_target(4, 2, seed=5)
        ds = measure_batch(target, 60, 0.0, rng)
        obj, merged = bond_objective(random_init(4, 2, 3, seed=2), 1, ds, lam)
        point = obj.point(merged)
        assert obj.loss(merged, point) == obj.loss(merged)
        assert np.array_equal(obj.gradient(merged, point), obj.gradient(merged))


class TestBondObjective:
    @pytest.mark.parametrize("bond", [0, 2])
    def test_probabilities_match_dense_oracle(self, bond, rng):
        # a random N=6 model at D=4: bond 0 merges (1, 2, 2, 4), bond 2 (4, 2, 2, 4)
        model = random_init(6, 2, 4, seed=11)
        ds = measure_batch(random_target(6, 2, seed=3), 80, 0.0, rng)
        obj, merged = bond_objective(model, bond, ds, 0.0)
        dense = DenseState.from_mps(model)
        expect = np.array([
            dense_probability(dense, (ds.thetas[i], ds.phis[i]), ds.spin - ds.outcome_indices[i])
            for i in range(len(ds))
        ])
        _, _, probs, _ = obj.point(merged)
        np.testing.assert_allclose(probs, expect, rtol=1e-10)
        assert obj.loss(merged) == pytest.approx(-np.log(expect).mean(), abs=1e-12)

    def test_clamped_shots_drop_out_of_the_gradient(self):
        # |up up up> in z gives one shot probability 0, so it is clamped; in x
        # every outcome has probability 1/8
        z, x = np.zeros(3), np.full(3, np.pi / 2)
        shots = [(z, [0.5, 0.5, 0.5]), (x, [0.5, -0.5, 0.5]), (z, [0.5, -0.5, 0.5]),
                 (x, [-0.5, -0.5, 0.5]), (z, [0.5, 0.5, 0.5])]
        live = shots[:2] + shots[3:]

        def objective(rows):
            ds = Dataset(3, 2)
            ds.extend_raw(
                np.array([t for t, _ in rows]), np.zeros((len(rows), 3)),
                np.array([outcome_indices(ms, 2) for _, ms in rows]),
            )
            return bond_objective(product_state(3), 0, ds, 0.0)

        obj, merged = objective(shots)
        live_obj, _ = objective(live)
        grad = obj.gradient(merged)
        assert obj.clamped_last == 1
        np.testing.assert_allclose(grad, 4 / 5 * live_obj.gradient(merged), atol=1e-12)


class TestBondStep:
    def test_guard_rejects_steps_that_raise_a_huge_penalty(self, rng):
        # at the default penalty a fixed step never raises the loss; at
        # lambda0 = 1e3 most steps would, and the guard keeps the last point
        ds = measure_batch(w_state(5, 0.0), 300, 0.0, rng)
        obj, merged = bond_objective(random_init(5, 2, 4, seed=2), 0, ds, 1e3)
        stepped_from = []

        def recording_gradient(at, point=None):
            stepped_from.append(at)
            return training.BondObjective.gradient(obj, at, point)

        obj.gradient = recording_gradient
        out = training._optimize_bond(obj, merged, TrainConfig(lambda0=1e3))
        # a rejected step leaves the next one to start from the same tensor
        rejected = sum(np.array_equal(a, b) for a, b in zip(stepped_from, stepped_from[1:]))
        assert rejected >= 1
        assert obj.loss(out) <= obj.loss(merged)


class TestSweep:
    def test_product_target_converges(self, rng):
        target = product_state(4)
        ds = draw_shots(target, all_z(4), 300, rng)
        model = random_init(4, 2, 2, seed=1)
        cfg = TrainConfig(d_cap=4, sweeps_per_stage=1)
        for i in range(2):
            model, reps = train_stage(model, ds, replace(cfg, lambda0=0.01 * 0.9**i))
        assert reps[0].nll < 0.01

    def test_huge_penalty_kills_entanglement(self, rng):
        target = w_state(5, 0.0)
        ds = measure_batch(target, 300, 0.0, rng)
        model = random_init(5, 2, 4, seed=2)
        cfg = TrainConfig(d_cap=8, sweeps_per_stage=1, lambda0=1e3)
        for _ in range(3):
            model, _ = train_stage(model, ds, cfg)
        for k in range(4):
            assert model.renyi2_entropy(k) < 0.05

    def test_zero_step_is_noop(self, rng):
        target = w_state(4, 0.1)
        ds = measure_batch(target, 100, 0.0, rng)
        model = random_init(4, 2, 2, seed=5)
        cfg = TrainConfig(step_size=0.0, eta=0.0, eta_noise=0.0, d_cap=64, sweeps_per_stage=1)
        out, _ = train_stage(model, ds, cfg)
        before = model.to_dense()
        after = out.to_dense()
        phase = after[np.argmax(np.abs(after))] / before[np.argmax(np.abs(after))]
        np.testing.assert_allclose(before * phase, after, atol=1e-12)

    def test_contracts_only_the_environments_a_bond_reads(self, rng, monkeypatch):
        calls = {"left": 0, "right": 0}
        for side in calls:
            contract = getattr(training, f"_contract_{side}")

            def counted(*args, side=side, contract=contract):
                calls[side] += 1
                return contract(*args)

            monkeypatch.setattr(training, f"_contract_{side}", counted)
        ds = measure_batch(w_state(6, 0.0), 100, 0.0, rng)
        train_stage(random_init(6, 2, 2, seed=1), ds, TrainConfig(d_cap=4, sweeps_per_stage=1))
        # left: 4 in the sweep and 6 for its whole-chain NLL; right: 4 to
        # seed the stage and 4 in the sweep, none past the last bond read
        assert calls == {"left": 10, "right": 8}

    def test_keeps_one_environment_per_site(self, rng, monkeypatch):
        # every environment a contraction returns is watched until it is
        # freed; a stage holds one per site, the two edges aside, and the
        # end-of-sweep NLL at most two more while it contracts the chain
        refs, peak = [], [0]
        for side in ("left", "right"):
            contract = getattr(training, f"_contract_{side}")

            def watched(*args, contract=contract):
                env = contract(*args)
                refs.append(weakref.ref(env))
                peak[0] = max(peak[0], sum(ref() is not None for ref in refs))
                return env

            monkeypatch.setattr(training, f"_contract_{side}", watched)
        n = 8
        ds = measure_batch(w_state(n, 0.0), 200, 0.0, rng)
        cfg = TrainConfig(d_cap=4, sweeps_per_stage=2, convergence_tol=1e-12)
        _, history = train_stage(random_init(n, 2, 2, seed=1), ds, cfg)
        assert len(history) == 3
        assert peak[0] <= n + 1

    def test_canonical_invariants_after_sweep(self, rng):
        target = w_state(5, 0.0)
        ds = measure_batch(target, 200, 0.0, rng)
        cfg = TrainConfig(d_cap=8, sweeps_per_stage=1)
        model, _ = train_stage(random_init(5, 2, 3, seed=7), ds, cfg)
        assert abs(model.norm() - 1.0) < 1e-10
        assert max_canonical_defect(model) < 1e-10


class TestTrainStage:
    def test_lambda_schedule(self, rng):
        target = w_state(4, 0.0)
        ds = measure_batch(target, 100, 0.0, rng)
        cfg = TrainConfig(sweeps_per_stage=5, convergence_tol=1e-12, d_cap=4)
        _, history = train_stage(random_init(4, 2, 2, seed=1), ds, cfg)
        lams = [rep.lam for rep in history[:-1]]
        expect = [cfg.lambda0 * cfg.lambda_decay**t for t in range(len(lams))]
        np.testing.assert_allclose(lams, expect, rtol=1e-12)
        assert history[-1].lam == 0.0

    def test_closing_report_reuses_the_last_sweep(self, rng):
        ds = measure_batch(w_state(4, 0.0), 100, 0.0, rng)
        _, history = train_stage(random_init(4, 2, 2, seed=1), ds, TrainConfig(d_cap=4))
        last, closing = history[-2], history[-1]
        assert (closing.nll, closing.penalty, closing.lam) == (last.nll, last.penalty, 0.0)
        assert closing.total == closing.nll

    def test_loss_non_increasing_at_fixed_lambda(self, rng):
        target = random_target(5, 2, seed=6)
        ds = measure_batch(target, 400, 0.0, rng)
        cfg = TrainConfig(
            lambda0=0.01, lambda_decay=0.999999, sweeps_per_stage=8,
            convergence_tol=1e-12, d_cap=8,
        )
        _, history = train_stage(random_init(5, 2, 2, seed=3), ds, cfg)
        totals = [rep.total for rep in history[:-1]]
        for a, b in zip(totals, totals[1:]):
            assert b <= a + 1e-6 * max(1.0, abs(a))

    def test_deterministic(self, rng):
        target = w_state(4, 0.1)
        ds = measure_batch(target, 150, 0.0, rng)
        cfg = TrainConfig(sweeps_per_stage=4, d_cap=4)
        a, _ = train_stage(random_init(4, 2, 2, seed=9), ds, cfg)
        b, _ = train_stage(random_init(4, 2, 2, seed=9), ds, cfg)
        for k in range(4):
            np.testing.assert_array_equal(a.tensor(k), b.tensor(k))

    def test_exhaustive_product_data_reaches_entropy_floor(self, rng):
        target = product_state(4)
        ds = draw_shots(target, all_z(4), 500, rng)
        model, history = train_stage(
            random_init(4, 2, 2, seed=4), ds, TrainConfig(d_cap=4, lambda0=0.0001)
        )
        assert history[-1].nll < 1e-2

    def test_w6_end_to_end(self):
        rng = np.random.default_rng(123)
        target = w_state(6, 0.0)
        ds = measure_batch(target, 2000, 0.0, rng)
        cfg = TrainConfig(d_cap=8)
        model, _ = train_stage(random_init(6, 2, 2, seed=0), ds, cfg)
        f, _ = model.fidelity_distance(target)
        assert f >= 0.98


class TestTrainConfig:
    def test_validation(self):
        TrainConfig().validate()
        with pytest.raises(ParameterError):
            TrainConfig(lambda_decay=1.5).validate()
        with pytest.raises(ParameterError):
            TrainConfig(d_cap=0).validate()
        # zero step size is a legal no-op configuration
        TrainConfig(step_size=0.0).validate()

    def test_bond_eta_off_switch(self):
        cfg = TrainConfig(eta_noise=0.0)
        assert training._bond_eta(cfg, 4, 2, 4, 100) == cfg.eta

    def test_bond_eta_noise_scale(self):
        cfg = TrainConfig()
        assert training._bond_eta(cfg, 2, 2, 2, 10_000) == pytest.approx(np.sqrt(8 / 20_000))
        assert training._bond_eta(cfg, 8, 2, 8, 50) == training._ETA_CAP == 0.12
