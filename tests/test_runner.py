import filecmp
from dataclasses import fields
from typing import get_args, get_type_hints

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mpstomo import (
    ExperimentConfig,
    FormatError,
    ParameterError,
    StageRecord,
    TargetSpec,
    TrainConfig,
    load_config,
    replicas_to_threshold,
    report,
    run_tomography,
)
from mpstomo.config import build_experiment_config, config_to_text, parse_config_text
from mpstomo.runner import read_history, run_scaling_suite, write_history, write_run_dir


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
# config values are single tokens: no '#', line breaks or edge whitespace
_TOKENS = st.from_regex(r"[A-Za-z0-9/._-]+", fullmatch=True)
_SCALARS = {bool: st.booleans(), int: st.integers(), float: _FLOATS, str: _TOKENS}


def _field_strategies(cls, **overrides):
    """A strategy for every field of a config dataclass, from its type hints."""
    hints = get_type_hints(cls)
    out = {}
    for f in fields(cls):
        if f.name in overrides:
            out[f.name] = overrides[f.name]
            continue
        args = [a for a in get_args(hints[f.name]) if a is not type(None)]
        out[f.name] = st.none() | _SCALARS[args[0]] if args else _SCALARS[hints[f.name]]
    return st.builds(cls, **out)


_TARGET_SPECS = _field_strategies(
    TargetSpec,
    kind=st.sampled_from(["w", "cluster", "dimer", "random"]),
    n_sites=st.integers(min_value=1).map(lambda k: 2 * k),  # dimers need even n
    d_max=st.integers(min_value=1),
    seed=st.integers(min_value=0),
)
_EXPERIMENT_CONFIGS = _field_strategies(
    ExperimentConfig,
    target=_TARGET_SPECS | _TOKENS,
    train=_field_strategies(TrainConfig),
)


def small_config(**kw):
    base = dict(
        target=TargetSpec("W", 4, theta=0.1),
        fidelity_threshold=0.9,
        batch_initial=20,
        batch_growth=1.5,
        max_replicas=200,
        seed=3,
        train=TrainConfig(d_cap=4, sweeps_per_stage=4),
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfigFormat:
    def test_parse_lines(self):
        text = """
        # comment
        target.kind = w
        target.n = 6
        train.lambda0 = 0.02   # trailing comment
        fidelity_threshold = 0.99
        blind = true
        """
        mapping = parse_config_text(text)
        assert mapping["target.kind"] == "w"
        cfg = build_experiment_config(mapping)
        assert cfg.target.kind == "W" and cfg.target.n_sites == 6
        assert cfg.train.lambda0 == 0.02
        assert cfg.fidelity_threshold == 0.99
        assert cfg.blind is True

    def test_unknown_key(self):
        with pytest.raises(ParameterError):
            build_experiment_config({"target.kind": "w", "target.n": "4", "bogus": "1"})

    def test_bad_value(self):
        with pytest.raises(ParameterError):
            build_experiment_config({"max_replicas": "many"})

    def test_missing_equals(self):
        with pytest.raises(FormatError):
            parse_config_text("just a line")

    def test_roundtrip(self, tmp_path):
        cfg = small_config(noise_epsilon=0.25, c_estimate=0.3)
        path = tmp_path / "run.cfg"
        path.write_text(config_to_text(cfg))
        loaded = load_config(path)
        assert loaded.target == cfg.target
        assert loaded.noise_epsilon == 0.25
        assert loaded.c_estimate == 0.3
        assert loaded.train == cfg.train

    @given(_EXPERIMENT_CONFIGS)
    def test_roundtrip_every_field(self, cfg):
        text = config_to_text(cfg)
        assert build_experiment_config(parse_config_text(text)) == cfg

    @given(st.text())
    def test_target_path_reads_back_or_is_refused(self, path):
        cfg = small_config(target=path)
        try:
            text = config_to_text(cfg)
        except ParameterError:
            return
        assert build_experiment_config(parse_config_text(text)) == cfg

    def test_replacing_train_keeps_noise_truncation(self):
        target = TargetSpec("W", 4)
        cfg = ExperimentConfig(target=target, train=TrainConfig(d_cap=8))
        assert ExperimentConfig().train == TrainConfig()
        assert cfg.train.eta_noise == 1.0
        explicit = ExperimentConfig(target=target, train=TrainConfig(d_cap=8, eta_noise=1.0))
        assert config_to_text(cfg) == config_to_text(explicit)

    def test_target_path_conflict(self):
        with pytest.raises(ParameterError):
            build_experiment_config({"target.path": "x.mps", "target.kind": "w", "target.n": "4"})

    def test_validation(self):
        with pytest.raises(ParameterError):
            small_config(fidelity_threshold=1.5).validate()
        with pytest.raises(ParameterError):
            small_config(noise_epsilon=-0.1).validate()
        with pytest.raises(ParameterError):
            ExperimentConfig().validate()


class TestRunTomography:
    def test_no_stages_error(self):
        with pytest.raises(ParameterError, match="no stages"):
            run_tomography(small_config(max_replicas=0))

    def test_basic_run_records(self):
        history, model = run_tomography(small_config())
        assert len(history) >= 1
        assert history[0].replicas == 20
        assert all(r.f_true is not None for r in history)
        assert all(r.r_real is not None for r in history)
        assert all(r.r_succ is not None for r in history[1:])
        assert history[0].r_succ is None
        reps = [r.replicas for r in history]
        assert reps == sorted(reps) and len(set(reps)) == len(reps)
        assert abs(model.norm() - 1.0) < 1e-10

    def test_replica_accounting_includes_noise(self):
        history, _ = run_tomography(small_config(noise_epsilon=0.5, max_replicas=100))
        assert history[-1].replicas == 100

    def test_blind_mode_hides_truth(self):
        history, _ = run_tomography(
            small_config(blind=True, stop_on_threshold=False, c_estimate=0.2)
        )
        assert all(r.f_true is None and r.r_real is None for r in history)
        assert any(r.f_est is not None for r in history[1:])

    def test_determinism_byte_identical(self, tmp_path):
        cfg_a = small_config(output_dir=str(tmp_path / "a"))
        cfg_b = small_config(output_dir=str(tmp_path / "b"))
        run_tomography(cfg_a)
        run_tomography(cfg_b)
        for name in ("history.csv", "model.mps", "shots.txt", "losses.csv", "run.cfg"):
            a, b = tmp_path / "a" / name, tmp_path / "b" / name
            if name == "run.cfg":
                # run dirs differ only in their own path
                fix = lambda p: [
                    ln for ln in p.read_text().splitlines() if not ln.startswith("output_dir")
                ]
                assert fix(a) == fix(b)
            else:
                assert filecmp.cmp(a, b, shallow=False), name

    def test_stop_rule_two_consecutive(self):
        cfg = small_config(fidelity_threshold=0.2, max_replicas=100_000)
        history, _ = run_tomography(cfg)
        # stops early, well before max_replicas
        assert history[-1].replicas < 1000
        assert history[-1].f_true >= 0.2 and history[-2].f_true >= 0.2
        assert replicas_to_threshold(history, 0.2) == history[-2].replicas

    def test_batch_cap(self):
        cfg = small_config(batch_max=25, max_replicas=120, stop_on_threshold=False)
        history, _ = run_tomography(cfg)
        reps = [r.replicas for r in history]
        assert reps == [20, 45, 70, 95, 120]

    def test_loss_history_artifact(self, tmp_path):
        cfg = small_config(output_dir=str(tmp_path / "run"))
        run_tomography(cfg)
        lines = (tmp_path / "run" / "losses.csv").read_text().splitlines()
        assert lines[0] == "sweep,lambda,nll,penalty,total"
        assert len(lines) >= 3  # at least one sweep plus the final lam=0 row
        last = lines[-1].split(",")
        assert float(last[1]) == 0.0
        nll_v, pen, total = float(last[2]), float(last[3]), float(last[4])
        assert abs(total - nll_v) < 1e-12 and pen >= 0


class TestHistoryIO:
    def test_roundtrip(self, tmp_path):
        history = [
            StageRecord(replicas=50, nll=2.0),
            StageRecord(
                replicas=100, nll=1.5, r_real=0.2, r_succ=0.1, f_true=0.97,
                f_est=0.96, c_est=0.2, alpha_real=-0.5, alpha_succ=-1.0, sweeps=4,
            ),
        ]
        path = tmp_path / "history.csv"
        write_history(path, history)
        loaded = read_history(path)
        assert loaded == history

    def test_malformed_reports_line(self, tmp_path):
        path = tmp_path / "history.csv"
        write_history(path, [StageRecord(replicas=50, nll=2.0)])
        text = path.read_text().splitlines()
        text.append("1,not_a_number,2.0,,,,,,,,")
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(FormatError, match="line 3"):
            read_history(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_float_reports_line(self, tmp_path, bad):
        path = tmp_path / "history.csv"
        write_history(path, [StageRecord(replicas=50, nll=2.0, r_real=0.1)])
        text = path.read_text().splitlines()
        text.append(f"1,100,1.5,{bad},,,,,,,")
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(FormatError, match="line 3: r_real is not finite"):
            read_history(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "history.csv"
        path.write_text("")
        with pytest.raises(FormatError, match="line 1"):
            read_history(path)


class TestScalingSuite:
    def test_single_point_single_seed(self, tmp_path):
        cfg = small_config(fidelity_threshold=0.8, max_replicas=3000)
        result = run_scaling_suite(
            "size", [4], cfg, n_seeds=1, out_path=tmp_path / "suite.csv"
        )
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row.n_converged == 1 and row.n_failed == 0
        assert row.std_replicas == 0.0
        assert (tmp_path / "suite.csv").exists()

    def test_empty_grid(self):
        with pytest.raises(ParameterError):
            run_scaling_suite("size", [], small_config())

    def test_requires_spec_target(self, tmp_path):
        from mpstomo import w_state

        cfg = small_config(target=w_state(4, 0.0))
        with pytest.raises(ParameterError):
            run_scaling_suite("size", [4], cfg)


class TestReport:
    def _make_run(self, tmp_path, name, **kw):
        cfg = small_config(output_dir=str(tmp_path / name), **kw)
        history, _ = run_tomography(cfg)
        return history

    def test_single_history_fig4(self, tmp_path):
        self._make_run(tmp_path, "r0")
        out = report([tmp_path / "r0"], tmp_path / "out")
        fig4 = (out["fig4_convergence.csv"]).read_text().splitlines()
        assert fig4[0].startswith("run,source,stage,replicas")
        reps = [int(line.split(",")[3]) for line in fig4[1:]]
        assert reps == sorted(reps)

    def test_summary_per_site_fidelity(self, tmp_path):
        self._make_run(tmp_path, "r2")
        out = report([tmp_path / "r2"], tmp_path / "out")
        header, row = out["summary.csv"].read_text().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        f_true, f_ps = float(cols["f_true"]), float(cols["f_per_site"])
        assert abs(f_ps - f_true ** (1 / 4)) < 1e-12
        assert f_ps >= f_true

    def test_empty_input(self, tmp_path):
        with pytest.raises(ParameterError):
            report([], tmp_path / "out")

    def test_real_and_virtual_sources(self, tmp_path):
        history = self._make_run(tmp_path, "real0")
        from mpstomo import load_mps

        model = load_mps(tmp_path / "real0" / "model.mps")
        cfg = small_config()
        write_run_dir(tmp_path / "virt0", cfg, history, model, None, source="virtual")
        out = report([tmp_path / "real0", tmp_path / "virt0"], tmp_path / "out")
        lines = out["fig4_convergence.csv"].read_text().splitlines()[1:]
        sources = {line.split(",")[1] for line in lines}
        assert sources == {"real", "virtual"}
        summary = out["summary.csv"].read_text().splitlines()[1:]
        assert {line.split(",")[1] for line in summary} == {"real", "virtual"}
        # the replica-demand figures have no source column: real runs only
        assert replicas_to_threshold(history, cfg.fidelity_threshold) is not None
        for name in ("fig2_size.csv", "fig5_noise.csv"):
            assert len(out[name].read_text().splitlines()) == 2, name

    def test_malformed_history_line_number(self, tmp_path):
        self._make_run(tmp_path, "r1")
        hist = tmp_path / "r1" / "history.csv"
        lines = hist.read_text().splitlines()
        lines[1] = lines[1].replace(",", ";", 1)
        hist.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="line 2"):
            report([tmp_path / "r1"], tmp_path / "out")
