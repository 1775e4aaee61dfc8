"""The multi-seed quality script gives the same W8 records on every pass,
runs only the sets it knows, and records a W10 run that never converges."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "quality.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("quality", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


quality = _load_script()


def test_w8_records_are_deterministic():
    first, second = (quality.w8_records([1000, 13002]) for _ in range(2))
    assert [r["seed"] for r in first] == [1000, 13002]
    for record in first:
        assert set(record) == {"seed", "f_true", "replicas_to_0.995", "sweeps", "bond_dims"}
    assert second == first
    assert set(quality._w8_summary(first)) == {
        "n", "stuck_below_0.9", "below_0.995", "median_f", "min_f", "sweeps",
    }


@pytest.mark.parametrize(
    "sets, unknown", [("w9", "w9"), ("w8,", ""), ("qudit,W10", "W10")],
    ids=["misspelt", "trailing_comma", "wrong_case"],
)
def test_unknown_set_exits_2(tmp_path, capsys, sets, unknown):
    out = tmp_path / "quality.json"
    with pytest.raises(SystemExit) as exc:
        quality.main(["--sets", sets, "--out", str(out)])
    assert exc.value.code == 2
    assert f"unknown set {unknown!r}" in capsys.readouterr().err
    assert not out.exists()


def test_w10_record_of_a_run_that_never_reaches_098(monkeypatch):
    # a run stuck below F 0.98 has no stage to score F_est on; its record
    # says so, with each virtual run's F and tail ratio beside their mean
    from mpstomo import StageRecord
    from mpstomo.estimation import CalibrationResult

    history = [
        StageRecord(v, 1.0, r_real=0.5 * v**-0.5, r_succ=2.0 / v, f_true=0.5, sweeps=3)
        for v in (500, 1000, 2000, 4000, 8000)
    ]
    virtual = [[StageRecord(8000, 1.0, f_true=f)] for f in (0.97, 0.06, 0.96)]
    calibration = CalibrationResult(6.2, 10.4, [0.2, 18.1, 0.3], virtual)
    monkeypatch.setattr(quality, "run_virtual", lambda *args, **kw: calibration)
    record = quality._w10_record(42, history, None)
    assert record["f_est_err_max"] is None and record["f_est_stages"] == 0
    assert record["virtual_f_true"] == [0.97, 0.06, 0.96]
    assert record["virtual_tail_ratio"] == [0.2, 18.1, 0.3]
    assert record["c_mean"] == 6.2 and record["c_median"] == 0.3
    assert record["sweeps"] == 15 and record["alpha_real"] == pytest.approx(-0.5)
