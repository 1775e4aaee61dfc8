"""The benchmark's two workloads.

Each workload has a ``prepare`` step, which is the set-up a user pays
before any work (import, config parse, target build) and is what
``setup_s`` times, and an ``op``: one unit of measured work that also
checks its own outputs.  The workload seed is the benchmark's argument:
``prepare`` gets it, and each op gets an op seed made from it (see
``run.py``), from which it draws its shots.  mpstomo sees only the
generated config, target and shot seeds.

An op returns an ``Outcome``: the failed checks (empty when correct),
SHA-256 digests of its deterministic outputs, which two ops with one op
seed must reproduce, and the quality figures of the run.

Why these two:

* ``w8_certify`` is the paper's pipeline through the CLI: tomography of
  W N=8 to a 4000-shot budget, 2 virtual calibration runs on the trained
  state, then a fidelity estimate per stage.  It is the only workload
  with training, independent runs (parallel-runs lever), estimation and
  artifact writing; its bond calls are many and small, so per-call
  overhead dominates.  It runs to a fixed shot budget rather than
  stopping at the fidelity threshold, so that the work done, and with it
  the time, does not swing with where one seed happens to cross the
  threshold.
* ``shots_io`` samples 2 x 10^4 noisy random-basis shots of a Random
  N=16, D=8 target, writes and reads the shot record, and round-trips the
  target through its ``.mps`` container: the measurement and I/O layers,
  with no training at all, so a change to training must leave it alone.

The time of one tomography depends on its shots, through the number of
sweeps training needs to converge.  With 8 virtual runs and one op seed
per run, the median ``w8_certify`` op time spread 0.16 (interquartile
range over median) over seeds 1-10, nearly all of it between seeds: the
two ops of a run agreed within a few percent.  So every op of a run
draws other shots, and the ops are kept short, 2 virtual runs and about
7 s, so that a run holds several of them and its median passes over an
op whose training happens to be slow (with 8 virtual runs, one op took
32 s where the other op of its run took 24 s).  ``shots_io`` does the
same work for every op seed and is kept small, about 3 s an op.

A third workload, one tomography of a Random N=10, D=3 target with the
bond-scaling settings, would be bound by matmul throughput rather than
per-call overhead.  It is left out: over seeds, its run times spread
0.19-0.30 (interquartile range over median) in four trials of ten or
five seeds, because its number of sweeps to converge depends on the shots
(16.5k-23.6k gradient calls per tomography to 6000 shots over seeds 1-10)
and its BLAS-heavy steps swing with the load of the machine.

The checks are on what the program promises for every seed: exit codes,
finite history fields, artifacts that agree with each other (the model
file with the recorded fidelity, the calibration constant with the
virtual histories), exact shot-record round trips and reproducible
digests.  Reaching F_true >= 0.995, the final fidelity and the worst
|F_est - F_true| over stages with F_true >= 0.98 are measured and
reported, not gated, because they depend on the seed.  W8 at 4000 shots
ends at F 0.993-0.997, with worst estimate error 0.005-0.10, over seeds
1-6: the estimator is only valid asymptotically, and one outlying virtual
run shifts the calibration mean.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import mpstomo.cli
import mpstomo.measurement
import mpstomo.mps
import mpstomo.runner
from mpstomo.config import load_config
from mpstomo.errors import EstimateOutOfRegime
from mpstomo.estimation import estimate_fidelity, tail_ratio
from mpstomo.states import TargetSpec, build_target

THRESHOLD = 0.995
F_EST_MIN_TRUE = 0.98

W8_CONFIG = """\
target.kind = w
target.n = 8
target.theta = 0.1
fidelity_threshold = 0.995
batch_max = 500
max_replicas = 4000
stop_on_threshold = false
train.d_cap = 8
train.eta_noise = 1.0
"""
W8_VIRTUAL_RUNS = 2

IO_SHOTS = 20_000
IO_EPSILON = 0.02


@dataclass
class Outcome:
    failures: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)

    def check(self, ok, message):
        if not ok:
            self.failures.append(message)


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _nonfinite_fields(path) -> int:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))[1:]
    return sum(1 for row in rows for v in row if v and not math.isfinite(float(v)))


# -- w8_certify ----------------------------------------------------------------


def prepare_w8_certify(seed, workdir):
    cfg_path = Path(workdir) / "w8.cfg"
    cfg_path.write_text(W8_CONFIG)
    return cfg_path, build_target(load_config(cfg_path).target)


def op_w8_certify(inputs, op_seed, workdir) -> Outcome:
    cfg_path, target = inputs
    out, vout = Path(workdir) / "tomo", Path(workdir) / "virtual"
    main = mpstomo.cli.main
    with contextlib.redirect_stdout(io.StringIO()):
        rc_tomo = main(["tomo", "--config", str(cfg_path), "--seed", str(op_seed),
                        "--out", str(out)])
        rc_virtual = main(["virtual", "--model", str(out / "model.mps"),
                           "--config", str(cfg_path), "--runs", str(W8_VIRTUAL_RUNS),
                           "--seed", str(1000 + W8_VIRTUAL_RUNS * op_seed), "--out", str(vout)])
    result = Outcome()
    result.check(rc_tomo == 0, f"tomo exited {rc_tomo}")
    result.check(rc_virtual == 0, f"virtual exited {rc_virtual}")
    if result.failures:
        return result
    read_history = mpstomo.runner.read_history
    history = read_history(out / "history.csv")
    virtual = sorted(vout.glob("virtual_*/history.csv"))
    bad = sum(_nonfinite_fields(p) for p in [out / "history.csv", *virtual])
    result.check(bad == 0, f"{bad} non-finite history fields")
    result.check(len(virtual) == W8_VIRTUAL_RUNS, f"{len(virtual)} virtual run dirs")
    calib = dict(line.split(" = ") for line in (vout / "calibration.txt").read_text().splitlines())
    c_mean = float(calib["c_mean"])
    c_again = statistics.mean(tail_ratio(read_history(p)) for p in virtual)
    result.check(math.isclose(c_mean, c_again, rel_tol=1e-12),
                 f"c_mean {c_mean!r} != {c_again!r} from the virtual histories")
    final = history[-1].f_true
    f_model, _ = mpstomo.mps.load_mps(out / "model.mps").fidelity_distance(target)
    result.check(abs(f_model - final) <= 1e-9, f"model.mps has F {f_model!r}, history {final!r}")

    # The paper's estimator is valid only asymptotically; its error is
    # measured here, not gated (see the module docstring).
    errors, out_of_regime = [], 0
    for rec in history:
        if rec.r_succ is None or rec.f_true < F_EST_MIN_TRUE:
            continue
        try:
            errors.append(abs(estimate_fidelity(c_mean, rec.r_succ)[1] - rec.f_true))
        except EstimateOutOfRegime:
            out_of_regime += 1
    result.quality = {
        "f_true_final": final,
        "f_est_err": max(errors, default=0.0),
        "f_est_out_of_regime": out_of_regime,
        "shots_to_threshold": mpstomo.runner.replicas_to_threshold(history, THRESHOLD) or 0,
        "c_mean": c_mean,
    }
    for name in ("history.csv", "shots.txt", "model.mps"):
        result.digests[name] = _sha256(out / name)
    result.digests["calibration.txt"] = _sha256(vout / "calibration.txt")
    return result


# -- shots_io ------------------------------------------------------------------


def prepare_shots_io(seed, workdir):
    return build_target(TargetSpec("Random", 16, d_max=8, seed=seed))


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def op_shots_io(target, op_seed, workdir) -> Outcome:
    measurement = mpstomo.measurement
    rng = np.random.default_rng([op_seed, 0x5407])
    shots = measurement.measure_batch(target, IO_SHOTS, IO_EPSILON, rng)
    shot_path, mps_path = Path(workdir) / "shots.txt", Path(workdir) / "target.mps"
    shots.to_file(shot_path)
    back = measurement.Dataset.from_file(shot_path, target.local_dim)
    target.save(mps_path)
    loaded = mpstomo.mps.load_mps(mps_path)
    fidelity, _ = target.fidelity_distance(loaded)
    result = Outcome()
    for name in ("thetas", "phis", "outcome_indices"):
        result.check(_same_bits(getattr(shots, name), getattr(back, name)),
                     f"shot record {name} changed in the file round trip")
    result.check(abs(fidelity - 1.0) <= 1e-12, f".mps round-trip fidelity {fidelity!r}")
    result.quality = {"f_true_final": fidelity}
    result.digests["shots.txt"] = _sha256(shot_path)
    result.digests["target.mps"] = _sha256(mps_path)
    return result


WORKLOADS = {
    "w8_certify": (prepare_w8_certify, op_w8_certify),
    "shots_io": (prepare_shots_io, op_shots_io),
}
