"""Byte-for-byte reproducibility of the run artifacts.

Two fixed runs (W N=6 and Random N=6, D=3) are hashed artifact by artifact.
``run.cfg`` is hashed without its ``output_dir`` line, which names the
temporary directory.  A change that alters numerics must regenerate these
hashes and say so in CHANGES.md; run this file as a script to print them:

    python tests/test_golden.py
"""

import hashlib
import tempfile
from pathlib import Path

import pytest

from mpstomo import ExperimentConfig, TargetSpec, TrainConfig, run_tomography

ARTIFACTS = ("history.csv", "model.mps", "shots.txt", "losses.csv", "run.cfg")

RUNS = {
    "w6": TargetSpec("W", 6, theta=0.1),
    "random6_d3": TargetSpec("Random", 6, d_max=3, seed=4),
}

GOLDEN = {
    "random6_d3": {
        "history.csv": "2e8e11a7a3be5b3da3462d76af6d09782dfdb4e35ce641f00ba8fe7be0ca841e",
        "model.mps": "0aec9233b87737a108d4c61024135b71e354b349afdd9f8dda38c2355a802fdd",
        "shots.txt": "c699232f89989e7eb7e7ad33b7bfd5badeebfa14fe0cd2916911d76846af5d77",
        "losses.csv": "8e24a173d09ae66aff70f4045ee6f548e934b6001ef3e6cd2c44c4c96babe3dd",
        "run.cfg": "684b7ec21a6c11cd2dde2189f1b0b1d6cf30fd60dd8944c2c82a9dd66c73cd48",
    },
    "w6": {
        "history.csv": "07ebf500226820dabb2704d1c67ce9c1f433b1d993f7e7ebcfb43356d0ddd381",
        "model.mps": "3d8113bddb452b9fffa272ce843276379a83d24b5ab28b63826daab8fb083b67",
        "shots.txt": "bacbf2595b3a544d4afc50d9067d38b59720487a960ed5c8377ded477a442a8f",
        "losses.csv": "a7378e28cc9a307bba6c20f3f4002e52ebaa370955fbf956d4ad8db0fb1f3679",
        "run.cfg": "2cb61903d0fc81c87319c3d7d003958f7db25b17a60e8a9e622ff0076aa1382c",
    },
}


def _config(target, out_dir):
    return ExperimentConfig(
        target=target,
        max_replicas=1500,
        batch_max=300,
        seed=7,
        stop_on_threshold=False,
        output_dir=str(out_dir),
        train=TrainConfig(d_cap=8, eta_noise=1.0),
    )


def artifact_hashes(name, out_dir) -> dict[str, str]:
    """Run one fixed config into ``out_dir`` and hash its artifacts."""
    run_tomography(_config(RUNS[name], out_dir))
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


@pytest.mark.parametrize("name", sorted(RUNS))
def test_artifacts_match_golden_hashes(name, tmp_path):
    assert artifact_hashes(name, tmp_path) == GOLDEN[name]


if __name__ == "__main__":
    for run_name in sorted(RUNS):
        with tempfile.TemporaryDirectory() as tmp:
            hashes = artifact_hashes(run_name, tmp)
        print(f'    "{run_name}": {{')
        for artifact, digest in hashes.items():
            print(f'        "{artifact}": "{digest}",')
        print("    },")
