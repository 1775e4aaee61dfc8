"""The multi-seed quality script gives the same W8 records on every pass."""

import json
import os
import subprocess
import sys
from pathlib import Path

import mpstomo

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
PACKAGE_PARENT = str(Path(mpstomo.__file__).resolve().parents[1])

# in a child interpreter: the script sets BLAS thread variables at import
TWO_W8_PASSES = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import quality
passes = [[quality.w8_run(seed) for seed in (1000, 13002)] for _ in range(2)]
print(json.dumps({"passes": passes, "summary": quality._w8_summary(passes[0])}))
"""


def test_w8_records_are_deterministic():
    done = subprocess.run(
        [sys.executable, "-c", TWO_W8_PASSES, str(SCRIPTS)],
        env=dict(os.environ, PYTHONPATH=PACKAGE_PARENT),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    first, second = out["passes"]
    assert [r["seed"] for r in first] == [1000, 13002]
    for record in first:
        assert set(record) == {"seed", "f_true", "sweeps", "bond_dims"}
    assert second == first
    assert set(out["summary"]) == {
        "n", "stuck_below_0.9", "below_0.995", "median_f", "min_f", "sweeps",
    }
