import struct
from dataclasses import replace

import pytest

from mpstomo import MatrixProductState, load_mps, w_state
from mpstomo.cli import main
from mpstomo.runner import read_history


def write_cfg(path, text):
    path.write_text(text)
    return str(path)


def save_scaled_w4(path):
    """A finite, well-formed W4 file whose state has norm 1e150."""
    w = w_state(4, 0.1)
    tensors = [w.tensor(k) for k in range(4)]
    tensors[1] = tensors[1] * 1e150
    MatrixProductState(tensors).save(path)


BASE_CFG = """
target.kind = w
target.n = 4
target.theta = 0.1
fidelity_threshold = 0.9
batch_initial = 20
max_replicas = 150
train.d_cap = 4
train.sweeps_per_stage = 4
train.eta_noise = 1.0
"""


class TestTargetCommand:
    def test_build_and_serialize(self, tmp_path, capsys):
        out = tmp_path / "w.mps"
        rc = main(["target", "--kind", "w", "--n", "5", "--theta", "0.1", "--seed", "1", "--out", str(out)])
        assert rc == 0
        loaded = load_mps(out)
        f, _ = loaded.fidelity_distance(w_state(5, 0.1))
        assert f > 1 - 1e-10

    def test_dimer_odd_size_parameter_error(self, tmp_path):
        rc = main(["target", "--kind", "dimer", "--n", "5", "--seed", "1", "--out", str(tmp_path / "x.mps")])
        assert rc == 2


class TestTomoCommand:
    def test_nonfinite_stage_exit_code(self, tmp_path, monkeypatch, capsys):
        import mpstomo.runner

        monkeypatch.setattr(mpstomo.runner, "r_succ", lambda prev, curr: float("nan"))
        cfg = write_cfg(tmp_path / "exp.cfg", BASE_CFG)
        out = tmp_path / "run"
        rc = main(["tomo", "--config", cfg, "--seed", "4", "--out", str(out)])
        assert rc == 3
        assert "stage 1: r_succ is not finite (nan)" in capsys.readouterr().err
        assert not out.exists()

    def test_run_writes_artifacts(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "exp.cfg", BASE_CFG)
        out = tmp_path / "run"
        rc = main(["tomo", "--config", cfg, "--seed", "4", "--out", str(out)])
        assert rc == 0
        for name in ("history.csv", "model.mps", "shots.txt", "run.cfg"):
            assert (out / name).exists(), name
        assert "replicas=" in capsys.readouterr().out

    def test_set_override(self, tmp_path):
        cfg = write_cfg(tmp_path / "exp.cfg", BASE_CFG)
        out = tmp_path / "run"
        rc = main([
            "tomo", "--config", cfg, "--set", "max_replicas=0",
            "--seed", "4", "--out", str(out),
        ])
        assert rc == 2  # "no stages" is a parameter error

    @pytest.mark.parametrize(
        "override", ["batch_growth=nan", "train.step_size=inf", "batch_max=-1"]
    )
    def test_non_finite_override_exit_code(self, tmp_path, override):
        cfg = write_cfg(tmp_path / "exp.cfg", BASE_CFG)
        rc = main([
            "tomo", "--config", cfg, "--set", override,
            "--seed", "4", "--out", str(tmp_path / "r"),
        ])
        assert rc == 2

    @pytest.mark.parametrize("growth", ["1e306", "1e308"])
    def test_overflowing_batch_growth_spends_the_budget_next(self, tmp_path, growth):
        cfg = write_cfg(tmp_path / "exp.cfg", BASE_CFG + "stop_on_threshold = false\n")
        out = tmp_path / "r"
        rc = main([
            "tomo", "--config", cfg, "--set", f"batch_growth={growth}",
            "--seed", "4", "--out", str(out),
        ])
        assert rc == 0
        assert [rec.replicas for rec in read_history(out / "history.csv")] == [20, 150]

    def test_set_target_field_updates_the_config_target(self, tmp_path):
        cfg = write_cfg(tmp_path / "exp.cfg", BASE_CFG)
        out = tmp_path / "r"
        rc = main([
            "tomo", "--config", cfg, "--set", "target.n=6", "--set", "target.theta=0.3",
            "--seed", "4", "--out", str(out),
        ])
        assert rc == 0
        echoed = (out / "run.cfg").read_text()
        for line in ("target.kind = W", "target.n = 6", "target.theta = 0.3"):
            assert line in echoed.splitlines(), line

    def test_unknown_config_key_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path / "exp.cfg", BASE_CFG + "nonsense = 1\n")
        rc = main(["tomo", "--config", cfg, "--seed", "4", "--out", str(tmp_path / "r")])
        assert rc == 2

    def test_bad_config_value_names_the_file(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "exp.cfg", BASE_CFG + "fidelity_threshold = abc\n")
        rc = main(["tomo", "--config", cfg, "--seed", "4", "--out", str(tmp_path / "r")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{cfg}: config key 'fidelity_threshold': cannot parse 'abc'" in err

    def test_run_cfg_reruns_the_run(self, tmp_path):
        # run.cfg echoes the resolved config and loads back, its source line included
        cfg = write_cfg(tmp_path / "exp.cfg", BASE_CFG)
        first, again = tmp_path / "first", tmp_path / "again"
        assert main(["tomo", "--config", cfg, "--seed", "4", "--out", str(first)]) == 0
        echoed = str(first / "run.cfg")
        assert main(["tomo", "--config", echoed, "--seed", "4", "--out", str(again)]) == 0
        for name in ("history.csv", "model.mps", "shots.txt", "losses.csv"):
            assert (again / name).read_bytes() == (first / name).read_bytes(), name

    def test_history_records_each_stages_sweeps(self, tmp_path):
        cfg = write_cfg(tmp_path / "exp.cfg", BASE_CFG)
        out = tmp_path / "run"
        assert main(["tomo", "--config", cfg, "--seed", "4", "--out", str(out)]) == 0
        assert (out / "history.csv").read_text().splitlines()[0].endswith(",alpha_succ,sweeps")
        sweeps = [rec.sweeps for rec in read_history(out / "history.csv")]
        assert all(1 <= n <= 4 for n in sweeps), sweeps  # train.sweeps_per_stage = 4
        # losses.csv holds the last stage's sweeps and a closing lambda = 0 row
        loss_rows = (out / "losses.csv").read_text().splitlines()[1:]
        assert sweeps[-1] == len(loss_rows) - 1

    def test_unnormalized_target_exit_code(self, tmp_path, capsys):
        save_scaled_w4(tmp_path / "scaled.mps")
        cfg = write_cfg(tmp_path / "exp.cfg", BASE_CFG)
        rc = main([
            "tomo", "--config", cfg, "--set", f"target.path={tmp_path / 'scaled.mps'}",
            "--seed", "4", "--out", str(tmp_path / "r"),
        ])
        assert rc == 2
        assert "norm 1e+150" in capsys.readouterr().err

    def test_mandatory_seed_and_out(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "exp.cfg", BASE_CFG)
        with pytest.raises(SystemExit) as err:
            main(["tomo", "--config", cfg])
        assert err.value.code == 2


class TestFitCommand:
    def test_fit_on_history(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "exp.cfg", BASE_CFG + "stop_on_threshold = false\nmax_replicas = 800\n")
        out = tmp_path / "run"
        assert main(["tomo", "--config", cfg, "--seed", "4", "--out", str(out)]) == 0
        capsys.readouterr()
        rc = main([
            "fit", "--history", str(out / "history.csv"),
            "--field", "r_real", "--tail", "1.0",
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "alpha=" in text and "coeff=" in text


    def test_non_finite_history_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "exp.cfg", BASE_CFG)
        out = tmp_path / "run"
        assert main(["tomo", "--config", cfg, "--seed", "4", "--out", str(out)]) == 0
        lines = (out / "history.csv").read_text().splitlines()
        fields = lines[1].split(",")
        fields[2] = "nan"  # nll
        lines[1] = ",".join(fields)
        (out / "history.csv").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["fit", "--history", str(out / "history.csv")]) == 2
        assert "line 2: nll is not finite" in capsys.readouterr().err


class TestReportCommand:
    def test_report_over_runs(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "exp.cfg", BASE_CFG)
        for i in range(2):
            assert main(["tomo", "--config", cfg, "--seed", str(10 + i), "--out", str(tmp_path / f"runs/r{i}")]) == 0
        rc = main(["report", "--runs", str(tmp_path / "runs"), "--out", str(tmp_path / "rep")])
        assert rc == 0
        assert (tmp_path / "rep" / "summary.csv").exists()
        assert (tmp_path / "rep" / "fig4_convergence.csv").exists()
        summary = (tmp_path / "rep" / "summary.csv").read_text().splitlines()
        assert len(summary) == 3

    @pytest.mark.parametrize(
        "key, bad", [("fidelity_threshold", "abc"), ("target.n", "four")]
    )
    def test_report_bad_run_cfg_value_exit_code(self, tmp_path, capsys, key, bad):
        cfg = write_cfg(tmp_path / "exp.cfg", BASE_CFG)
        run = tmp_path / "r"
        assert main(["tomo", "--config", cfg, "--seed", "4", "--out", str(run)]) == 0
        run_cfg = run / "run.cfg"
        lines = [
            f"{key} = {bad}" if line.startswith(f"{key} =") else line
            for line in run_cfg.read_text().splitlines()
        ]
        run_cfg.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["report", "--runs", str(run), "--out", str(tmp_path / "rep")]) == 2
        err = capsys.readouterr().err
        assert str(run_cfg) in err and repr(key) in err

    def test_header_only_history_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "exp.cfg", BASE_CFG)
        run = tmp_path / "r"
        assert main(["tomo", "--config", cfg, "--seed", "4", "--out", str(run)]) == 0
        history = run / "history.csv"
        history.write_text(history.read_text().splitlines()[0] + "\n")
        capsys.readouterr()
        assert main(["report", "--runs", str(run), "--out", str(tmp_path / "rep")]) == 2
        assert f"{history}: no stages" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()
        assert main(["fit", "--history", str(history)]) == 2
        assert f"{history}: no stages" in capsys.readouterr().err

    def _fit_ready_run(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "exp.cfg", BASE_CFG + "stop_on_threshold = false\nmax_replicas = 800\n"
        )
        run = tmp_path / "r"
        assert main(["tomo", "--config", cfg, "--seed", "4", "--out", str(run)]) == 0
        return run

    def test_history_without_sweeps_column_reads(self, tmp_path):
        # a run directory written before history.csv gained its sweeps column
        run = self._fit_ready_run(tmp_path)
        history = run / "history.csv"
        records = read_history(history)
        lines = history.read_text().splitlines()
        assert lines[0].endswith(",alpha_succ,sweeps")
        history.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in lines))
        assert read_history(history) == [replace(rec, sweeps=None) for rec in records]
        assert main(["fit", "--history", str(history), "--tail", "1.0"]) == 0
        assert main(["report", "--runs", str(run), "--out", str(tmp_path / "rep")]) == 0

    @pytest.mark.parametrize("position", [1, -1], ids=["second", "second_to_last"])
    def test_sweeps_column_out_of_place_exit_code(self, tmp_path, capsys, position):
        run = self._fit_ready_run(tmp_path)
        history = run / "history.csv"
        table = [line.split(",") for line in history.read_text().splitlines()]
        for row in table:
            row.insert(position, row.pop())
        history.write_text("".join(",".join(row) + "\n" for row in table))
        capsys.readouterr()
        assert main(["fit", "--history", str(history)]) == 2
        assert f"{history}: line 1: unexpected header" in capsys.readouterr().err
        assert main(["report", "--runs", str(run), "--out", str(tmp_path / "rep")]) == 2
        assert f"{history}: line 1: unexpected header" in capsys.readouterr().err

    def test_report_empty_dir(self, tmp_path):
        (tmp_path / "empty").mkdir()
        rc = main(["report", "--runs", str(tmp_path / "empty"), "--out", str(tmp_path / "rep")])
        assert rc == 2


class TestSuiteCommand:
    def test_tiny_suite(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "exp.cfg", BASE_CFG + "fidelity_threshold = 0.8\nmax_replicas = 2000\n")
        rc = main([
            "suite", "--kind", "size", "--grid", "4", "--seeds", "1",
            "--config", cfg, "--seed", "5", "--out", str(tmp_path / "suite"),
        ])
        assert rc == 0
        assert (tmp_path / "suite" / "suite_size.csv").exists()

    @pytest.mark.parametrize(
        "grid, seeds, sets",
        [
            ("a", "1", []),
            ("4,x", "1", []),
            ("4", "0", []),
            (",", "1", []),
            ("1", "1", []),
            ("4", "1", ["fidelity_threshold=2"]),
            ("4", "1", ["max_replicas=0"]),
        ],
        ids=[
            "grid-a", "grid-4x", "seeds-0", "grid-empty", "grid-1-site",
            "threshold-2", "max-replicas-0",
        ],
    )
    def test_bad_grid_or_seeds_exit_code(self, tmp_path, capsys, grid, seeds, sets):
        cfg = write_cfg(tmp_path / "exp.cfg", BASE_CFG)
        rc = main([
            "suite", "--kind", "size", "--grid", grid, "--seeds", seeds,
            "--config", cfg, "--seed", "5", "--out", str(tmp_path / "suite"),
            *(arg for kv in sets for arg in ("--set", kv)),
        ])
        assert rc == 2
        assert not (tmp_path / "suite").exists()

    def test_unreached_grid_value_leaves_fields_empty(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "exp.cfg", BASE_CFG + "fidelity_threshold = 0.9999\nmax_replicas = 40\n")
        rc = main([
            "suite", "--kind", "size", "--grid", "4", "--seeds", "1",
            "--config", cfg, "--seed", "5", "--out", str(tmp_path / "suite"),
        ])
        assert rc == 0
        rows = (tmp_path / "suite" / "suite_size.csv").read_text().splitlines()
        assert rows[1] == "4,,,0,1"
        assert "size=4 mean|V|= std= ok=0 failed=1" in capsys.readouterr().out


class TestVirtualCommand:
    def test_calibration_outputs(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "exp.cfg", BASE_CFG + "stop_on_threshold = false\nmax_replicas = 700\n")
        out = tmp_path / "run"
        assert main(["tomo", "--config", cfg, "--seed", "4", "--out", str(out)]) == 0
        rc = main([
            "virtual", "--model", str(out / "model.mps"), "--config", cfg,
            "--runs", "2", "--seed", "9", "--out", str(tmp_path / "virt"),
        ])
        assert rc == 0
        assert (tmp_path / "virt" / "calibration.txt").exists()
        assert (tmp_path / "virt" / "virtual_00" / "history.csv").exists()
        text = capsys.readouterr().out
        assert "c_estimate" in text
        # the virtual runs ran without the config's c_estimate, and their
        # run.cfg echoes say so
        virt = tmp_path / "virt2"
        with open(cfg, "a") as f:
            f.write("c_estimate = 0.2\n")
        rc = main([
            "virtual", "--model", str(out / "model.mps"), "--config", cfg,
            "--runs", "1", "--seed", "9", "--out", str(virt),
        ])
        assert rc == 0
        echoed = (virt / "virtual_00" / "run.cfg").read_text()
        assert "c_estimate" not in echoed and "source = virtual" in echoed
        first = (tmp_path / "virt" / "virtual_00" / "history.csv").read_bytes()
        assert (virt / "virtual_00" / "history.csv").read_bytes() == first

    def test_virtual_run_cfg_reruns_the_run(self, tmp_path):
        # a virtual run's run.cfg names the model it measured, not the config's
        # target, and holds no copy of it; a '#' inside the path is no comment
        cfg = write_cfg(tmp_path / "exp.cfg", BASE_CFG)
        model = tmp_path / "a#b" / "w4.mps"
        model.parent.mkdir()
        w_state(4, 0.1).save(model)
        virt = tmp_path / "virt"
        rc = main([
            "virtual", "--model", str(model), "--config", cfg,
            "--runs", "2", "--seed", "9", "--out", str(virt),
        ])
        assert rc == 0
        for i in range(2):
            echoed = virt / f"virtual_{i:02d}" / "run.cfg"
            assert f"target.path = {model}\n" in echoed.read_text()
            assert sorted(p.name for p in echoed.parent.iterdir()) == ["history.csv", "run.cfg"]
            again = tmp_path / f"again_{i}"
            assert main(["tomo", "--config", str(echoed), "--seed", str(9 + i), "--out", str(again)]) == 0
            assert (again / "history.csv").read_bytes() == (echoed.parent / "history.csv").read_bytes()

    def test_unwritable_model_path_exit_code(self, tmp_path, capsys):
        # ' #' starts a comment, so run.cfg could not name this model
        cfg = write_cfg(tmp_path / "exp.cfg", BASE_CFG)
        model = tmp_path / "a #b" / "w4.mps"
        model.parent.mkdir()
        w_state(4, 0.1).save(model)
        virt = tmp_path / "virt"
        rc = main([
            "virtual", "--model", str(model), "--config", cfg,
            "--runs", "1", "--seed", "9", "--out", str(virt),
        ])
        assert rc == 2
        assert "cannot be written to a config file" in capsys.readouterr().err
        assert not (virt / "virtual_00").exists()

    def test_unnormalized_model_exit_code(self, tmp_path, capsys):
        save_scaled_w4(tmp_path / "scaled.mps")
        cfg = write_cfg(tmp_path / "exp.cfg", BASE_CFG)
        rc = main([
            "virtual", "--model", str(tmp_path / "scaled.mps"), "--config", cfg,
            "--runs", "1", "--seed", "9", "--out", str(tmp_path / "virt"),
        ])
        assert rc == 2
        assert "norm 1e+150" in capsys.readouterr().err

    def test_truncated_model_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "exp.cfg", BASE_CFG)
        model = tmp_path / "w4.mps"
        w_state(4, 0.1).save(model)
        model.write_bytes(model.read_bytes()[:-8])
        rc = main([
            "virtual", "--model", str(model), "--config", cfg,
            "--runs", "2", "--seed", "9", "--out", str(tmp_path / "virt"),
        ])
        assert rc == 2
        assert "byte 344: site 3 tensor runs past the end" in capsys.readouterr().err

    def test_zero_bond_model_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "exp.cfg", BASE_CFG)
        model = tmp_path / "w4.mps"
        w_state(4, 0.1).save(model)
        raw = model.read_bytes()
        model.write_bytes(raw[:16] + (0).to_bytes(4, "little") + raw[20:])
        rc = main([
            "virtual", "--model", str(model), "--config", cfg,
            "--runs", "2", "--seed", "9", "--out", str(tmp_path / "virt"),
        ])
        assert rc == 2
        assert "byte 16: bond 1 has dimension 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "raw, message",
        [
            (b"MPS1" + struct.pack("<III", 2, 0, 1), "byte 8: local dimension 0"),
            (b"MPS1" + struct.pack("<II", 0, 2), "byte 4: 0 sites"),
            (b"MPS1" + struct.pack("<III", 2, 1, 1) + bytes(32), "byte 8: local dimension 1"),
        ],
        ids=["q0", "n0", "q1"],
    )
    def test_bad_dimension_model_exit_code(self, tmp_path, capsys, raw, message):
        cfg = write_cfg(tmp_path / "exp.cfg", BASE_CFG)
        model = tmp_path / "bad.mps"
        model.write_bytes(raw)
        rc = main([
            "virtual", "--model", str(model), "--config", cfg,
            "--runs", "1", "--seed", "9", "--out", str(tmp_path / "virt"),
        ])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_same_seed_identical_runs(self, tmp_path):
        from mpstomo import ExperimentConfig, TargetSpec, TrainConfig, run_virtual

        trained = w_state(4, 0.1)
        proto = ExperimentConfig(
            target=TargetSpec("W", 4, theta=0.1),
            batch_initial=20, max_replicas=400, stop_on_threshold=False, seed=0,
            train=TrainConfig(d_cap=4, sweeps_per_stage=4),
        )
        a = run_virtual(trained, proto, n_runs=2, seed=77)
        b = run_virtual(trained, proto, n_runs=2, seed=77)
        assert a.values == b.values
        for ha, hb in zip(a.histories, b.histories):
            assert ha == hb


class TestNegativeSeed:
    """A negative seed is a parameter error on every entry point, found
    before any run starts or any output is made."""

    @pytest.mark.parametrize(
        "argv, seed",
        [
            (["target", "--kind", "random", "--n", "4", "--d-max", "2", "--seed", "-3"], "-3"),
            (["tomo", "--seed", "-1"], "-1"),
            (["tomo", "--seed", "4", "--set", "target.kind=random", "--set", "target.d_max=2",
              "--set", "target.seed=-2"], "-2"),
            (["suite", "--kind", "size", "--grid", "3,4", "--seeds", "2", "--seed", "-9"], "-9"),
            (["virtual", "--runs", "2", "--seed", "-1"], "-1"),
        ],
        ids=["target", "tomo", "set-target-seed", "suite", "virtual"],
    )
    def test_exit_code_names_the_seed(self, tmp_path, capsys, argv, seed):
        out = tmp_path / "out"
        if argv[0] != "target":
            argv = [*argv, "--config", write_cfg(tmp_path / "exp.cfg", BASE_CFG)]
        if argv[0] == "virtual":
            w_state(4, 0.1).save(tmp_path / "w4.mps")
            argv = [*argv, "--model", str(tmp_path / "w4.mps")]
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "non-negative integer" in err and f"got {seed}" in err
        assert not out.exists()
