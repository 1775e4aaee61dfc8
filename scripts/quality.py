"""Multi-seed quality figures of the trainer, to diff before and after a
change to its numerics.

    PYTHONPATH=src python3 scripts/quality.py [--sets w8,w10,qudit,random10] [--out FILE]

Run from the root of a source checkout.  Four sets, all deterministic:

* ``w8``: the benchmark's W N=8 tomography (4000 shots in batches of 500,
  no early stop, ``train.d_cap = 8``; the op seed as the config seed) for
  op seeds 1000-1039 and 13000, 13002, 8007, 23000.  Per run: the final
  true fidelity, the replicas to F 0.995, the sweeps over all stages and
  the final bond dimensions; over seeds 1000-1039: how many end below F
  0.9 (stuck) and below 0.995, and the median and lowest F.
* ``w10``: the criterion-4/5 run (W N=10 to 10^4 shots, no early stop) for
  seeds 42-45: the power-law exponents of both distances and, after 8
  virtual runs (seed 100 * seed + 42), the calibration constant and the
  worst |F_est - F_true| over stages with F_true >= 0.98.
* ``qudit``: random D=2 targets (``mps._gaussian_chain``, seed 5) with
  q=3 N=6 and q=4 N=5, read through ``target.path``, trained to 6000 shots.
* ``random10``: three of criterion 6's bond-suite runs (Random N=10,
  d_max 3 at seeds 1057 and 1058, d_max 4 at seed 2054; up to 60,000 shots
  in batches of 400, stopping at F 0.995, ``train.eta_noise = 1.5``), with
  the same records as ``w8``.

Each set's tomographies run through ``mpstomo.parallel.map_runs``, which
gives every run one BLAS thread; every run's bytes are independent of the
BLAS thread count, so the figures are too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from mpstomo import (
    ExperimentConfig, TargetSpec, TrainConfig, estimate_fidelity, fit_power_law,
    replicas_to_threshold, run_tomography,
)
from mpstomo.estimation import run_virtual
from mpstomo.mps import _gaussian_chain
from mpstomo.parallel import map_runs
from mpstomo.runner import _suite_config

SETS = ("w8", "w10", "qudit", "random10")
W8_SEEDS = list(range(1000, 1040))
W8_EXTRA = [13000, 13002, 8007, 23000]
W10_SEEDS = [42, 43, 44, 45]
W10_VIRTUAL_RUNS = 8
QUDITS = [(3, 6), (4, 5)]
RANDOM10_RUNS = [(3, 1057), (3, 1058), (4, 2054)]  # (d_max, seed)

W8 = ExperimentConfig(
    target=TargetSpec("W", 8, theta=0.1), fidelity_threshold=0.995, batch_max=500,
    max_replicas=4000, stop_on_threshold=False, train=TrainConfig(d_cap=8),
)
W10 = replace(W8, target=TargetSpec("W", 10, theta=0.1), max_replicas=10_000)
QUDIT = replace(W8, max_replicas=6000, seed=5)
# criterion 6's suite config; _suite_config sets the target's kind, d_max and
# seed, the config seed and the stop on threshold
RANDOM10 = ExperimentConfig(
    target=TargetSpec("Random", 10, d_max=2, seed=0), fidelity_threshold=0.995,
    batch_max=400, max_replicas=60_000, train=TrainConfig(d_cap=8, eta_noise=1.5),
)


def _record(history, model):
    return {
        "f_true": history[-1].f_true,
        "replicas_to_0.995": replicas_to_threshold(history, 0.995),
        "sweeps": sum(rec.sweeps for rec in history),
        "bond_dims": [model.tensor(j).shape[2] for j in range(model.n_sites - 1)],
    }


def w8_records(seeds):
    runs = map_runs(run_tomography, [replace(W8, seed=s) for s in seeds])
    return [{"seed": s, **_record(*run)} for s, run in zip(seeds, runs)]


def qudit_records():
    with tempfile.TemporaryDirectory() as tmp:
        configs = []
        for q, n in QUDITS:
            path = Path(tmp) / f"q{q}_n{n}.mps"
            _gaussian_chain(n, q, 2, seed=5).save(path)
            configs.append(replace(QUDIT, target=str(path)))
        runs = map_runs(run_tomography, configs)
    return [{"q": q, "n": n, **_record(*run)} for (q, n), run in zip(QUDITS, runs)]


def random10_records():
    configs = [_suite_config(RANDOM10, "bond", d, s) for d, s in RANDOM10_RUNS]
    runs = map_runs(run_tomography, configs)
    return [{"d_max": d, "seed": s, **_record(*run)} for (d, s), run in zip(RANDOM10_RUNS, runs)]


def _w8_summary(runs):
    fs = [r["f_true"] for r in runs]
    return {
        "n": len(fs),
        "stuck_below_0.9": sum(f < 0.9 for f in fs),
        "below_0.995": sum(f < 0.995 for f in fs),
        "median_f": statistics.median(fs),
        "min_f": min(fs),
        "sweeps": sum(r["sweeps"] for r in runs),
    }


def _w10_record(seed, history, model):
    cfg = replace(W10, seed=seed)
    fit_real = fit_power_law(history, "r_real", tail_fraction=1.0, min_replicas=500)
    fit_succ = fit_power_law(history, "r_succ", tail_fraction=1.0, min_replicas=500)
    calibration = run_virtual(model, cfg, n_runs=W10_VIRTUAL_RUNS, seed=100 * seed + 42)
    errors = [
        abs(estimate_fidelity(calibration.mean, rec.r_succ)[1] - rec.f_true)
        for rec in history if rec.f_true >= 0.98 and rec.r_succ is not None
    ]
    return {
        "seed": seed, "f_true": history[-1].f_true, "sweeps": sum(rec.sweeps for rec in history),
        "alpha_real": fit_real.alpha, "alpha_succ": fit_succ.alpha,
        "c_mean": calibration.mean, "c_std": calibration.std,
        "f_est_err_max": max(errors), "f_est_stages": len(errors),
    }


def _set_names(text):
    names = text.split(",")
    for name in names:
        if name not in SETS:
            raise argparse.ArgumentTypeError(f"unknown set {name!r}; sets: {','.join(SETS)}")
    return names


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=_set_names, default=",".join(SETS))
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    argv = sys.argv[1:] if argv is None else argv
    result = {"command": " ".join(["PYTHONPATH=src python3 scripts/quality.py", *argv])}
    if "w8" in args.sets:
        runs = w8_records(W8_SEEDS + W8_EXTRA)
        result["w8"] = {"summary_1000_1039": _w8_summary(runs[: len(W8_SEEDS)]), "runs": runs}
    if "qudit" in args.sets:
        result["qudit"] = qudit_records()
    if "w10" in args.sets:
        tomographies = map_runs(run_tomography, [replace(W10, seed=s) for s in W10_SEEDS])
        # the virtual runs of each record spread over the CPUs themselves
        result["w10"] = [_w10_record(s, *t) for s, t in zip(W10_SEEDS, tomographies)]
    if "random10" in args.sets:
        result["random10"] = random10_records()
    text = json.dumps(result, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
