"""The multi-seed quality script gives the same W8 records on every pass and
runs only the sets it knows."""

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
