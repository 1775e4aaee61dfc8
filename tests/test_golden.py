"""Byte-for-byte reproducibility of the run artifacts.

Four fixed runs are hashed artifact by artifact: W N=6 and Random N=6,
D=3, and the benchmark's W N=8 workload at two seeds, one that converges
and one whose training gets stuck.  ``run.cfg`` is hashed without its
``output_dir`` line, which names the temporary directory.  The virtual
path is pinned too: ``mpstomo virtual --runs 2`` on the W6 run's model,
hashing ``calibration.txt`` and each ``virtual_NN/history.csv``.  A change
that alters numerics must regenerate these hashes and say so in
CHANGES.md; run this file as a script to print them:

    python tests/test_golden.py
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import mpstomo
from mpstomo import ExperimentConfig, TargetSpec, TrainConfig, run_tomography
from mpstomo.cli import main

ARTIFACTS = ("history.csv", "model.mps", "shots.txt", "losses.csv", "run.cfg")

# the benchmark's w8_certify tomography (bench/workloads.py): 4000 shots in
# batches of 500, no early stop, the op seed as the config seed
W8 = dict(target=TargetSpec("W", 8, theta=0.1), max_replicas=4000, batch_max=500)

# per run, what it sets on top of _config's defaults
RUNS = {
    "w6": dict(target=TargetSpec("W", 6, theta=0.1)),
    "random6_d3": dict(target=TargetSpec("Random", 6, d_max=3, seed=4)),
    "w8_seed13000": dict(W8, seed=13000),  # converges, F 0.997
    "w8_seed13002": dict(W8, seed=13002),  # stuck, F 0.028
}

GOLDEN = {
    "random6_d3": {
        "history.csv": "26295d7565cd5c7bbefe8af8ef9c3bec48dc7359f01ef8f7fd300b396df8d9d7",
        "model.mps": "da881e31ac746f6dcb31446d5aba13e0780787e282cb5e1a42d1b3465734a523",
        "shots.txt": "c699232f89989e7eb7e7ad33b7bfd5badeebfa14fe0cd2916911d76846af5d77",
        "losses.csv": "bab07144127879af8f599c6f55c928b69041f5edddf3e4422d516368f2754e47",
        "run.cfg": "34823adaf47b80d9a0b80cce9d1264ccebacbf0d053c5a05b1ad3da5c1e3918f",
    },
    "w6": {
        "history.csv": "2b2c37a27ffc09e070940a7def2aea503c8dba4c454defcfed4e1522d5cdc0b3",
        "model.mps": "6b9124e36d7b40634bc62c1bc4bbe00397487772427722578ea04ce7647cb039",
        "shots.txt": "bacbf2595b3a544d4afc50d9067d38b59720487a960ed5c8377ded477a442a8f",
        "losses.csv": "f58ddd19c9763886b385882ea06a5e33e871cf5a06d444237619fd5639465803",
        "run.cfg": "97116328c7e569425eebc19fb3548f8e6854643ee25bb852168daa04b1159986",
    },
    "w8_seed13000": {
        "history.csv": "632b79167fd8a929f0d60aa55cd1195aa2ec5630d9c1820b9877e340d2cba4e4",
        "model.mps": "e8a127e7c52935b5cdcc6b4bd3b3406744f9edcb2f4dbfdf4bbc55ede6560d49",
        "shots.txt": "1643bae58ccb4721cc9130dc39f1b2c10dd0387da94612fe1321719232ba50ba",
        "losses.csv": "eae2ad70d7396a673f5f4f22487691039014af478de11173e0ecc74626967ece",
        "run.cfg": "ca82f33288d1f57f45459fd9516d15a740de6f21081ad2d6b1e6feeac5a5d5f9",
    },
    "w8_seed13002": {
        "history.csv": "754fb982de6a5e963ad5673cae7942dfc6943f15ad2e66987416c79f24e1b5e3",
        "model.mps": "66fe6204727b26be9ecdb74d8dfc3b4e73f617b3c16519f82018944ca29681d6",
        "shots.txt": "a42e00a2cff01d2d512a9b3fe82d8409d72b0619ddf985322b3f75bc3435d0c8",
        "losses.csv": "629abc5752d884d209dc4f30149b3e7c36ced2561bd0744cac1f19189fb04e72",
        "run.cfg": "1e93623a42dfb290d1ea2fbaf747da02a37a0df06ec1fb4b9db54911703c8ca1",
    },
}

GOLDEN_VIRTUAL = {
    "calibration.txt": "75b25fc67ce0be8892fdc7330d18101a590e2aa9eb733f4813fe16c9b920e259",
    "virtual_00/history.csv": "85a37be2131c614dac655264f7ea37b8bb345b922a4473848b59c898847fe72f",
    "virtual_01/history.csv": "5ffc30a9e33d8f8d9d963a1d223750b77a1a9512c90b5319bd08c919d49f213c",
}

# the protocol of _config in the flat format, for the CLI's virtual command
VIRTUAL_CONFIG = """\
max_replicas = 1500
batch_max = 300
stop_on_threshold = false
train.d_cap = 8
train.eta_noise = 1.0
"""
VIRTUAL_ARTIFACTS = ("calibration.txt", "virtual_00/history.csv", "virtual_01/history.csv")


def _config(name, out_dir):
    settings = dict(max_replicas=1500, batch_max=300, seed=7) | RUNS[name]
    return ExperimentConfig(
        **settings,
        stop_on_threshold=False,
        output_dir=str(out_dir),
        train=TrainConfig(d_cap=8),
    )


def artifact_hashes(name, out_dir) -> dict[str, str]:
    """Run one fixed config into ``out_dir`` and hash its artifacts."""
    run_tomography(_config(name, out_dir))
    out = {}
    for artifact in ARTIFACTS:
        data = (Path(out_dir) / artifact).read_bytes()
        if artifact == "run.cfg":
            data = b"".join(
                line for line in data.splitlines(keepends=True)
                if not line.startswith(b"output_dir =")
            )
        out[artifact] = hashlib.sha256(data).hexdigest()
    return out


def virtual_hashes(work_dir) -> dict[str, str]:
    """Calibrate on the W6 golden model with two virtual runs and hash the
    calibration and each virtual run's history."""
    work = Path(work_dir)
    run_tomography(_config("w6", work / "w6"))
    (work / "virtual.cfg").write_text(VIRTUAL_CONFIG)
    rc = main([
        "virtual", "--model", str(work / "w6" / "model.mps"),
        "--config", str(work / "virtual.cfg"),
        "--runs", "2", "--seed", "99", "--out", str(work / "virtual"),
    ])
    assert rc == 0
    return {
        name: hashlib.sha256((work / "virtual" / name).read_bytes()).hexdigest()
        for name in VIRTUAL_ARTIFACTS
    }


@pytest.mark.parametrize("name", sorted(RUNS))
def test_artifacts_match_golden_hashes(name, tmp_path):
    assert artifact_hashes(name, tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_hashes_hold_with_one_blas_thread(name, tmp_path):
    # parallel runs rely on this: a worker process has one BLAS thread, its
    # caller as many as it inherited, and both must give the same bytes
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join([str(Path(mpstomo.__file__).parents[1]), str(Path(__file__).parent)]),
    )
    code = "import json, sys, test_golden; print(json.dumps(test_golden.artifact_hashes(*sys.argv[1:])))"
    done = subprocess.run(
        [sys.executable, "-c", code, name, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    assert json.loads(done.stdout.splitlines()[-1]) == GOLDEN[name]


def test_virtual_artifacts_match_golden_hashes(tmp_path):
    assert virtual_hashes(tmp_path) == GOLDEN_VIRTUAL


if __name__ == "__main__":
    for run_name in sorted(RUNS):
        with tempfile.TemporaryDirectory() as tmp:
            hashes = artifact_hashes(run_name, tmp)
        print(f'    "{run_name}": {{')
        for artifact, digest in hashes.items():
            print(f'        "{artifact}": "{digest}",')
        print("    },")
    with tempfile.TemporaryDirectory() as tmp:
        hashes = virtual_hashes(tmp)
    print("GOLDEN_VIRTUAL = {")
    for artifact, digest in hashes.items():
        print(f'    "{artifact}": "{digest}",')
    print("}")
