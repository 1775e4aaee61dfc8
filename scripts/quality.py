"""Multi-seed quality figures of the trainer, to diff before and after a
change to its numerics.

    PYTHONPATH=src python3 scripts/quality.py [--sets w8,w10,qudit] [--out FILE]

Run from the root of a source checkout.  Three sets, all deterministic:

* ``w8``: the benchmark's W N=8 tomography (4000 shots in batches of 500,
  no early stop, ``train.d_cap = 8``; the op seed as the config seed) for
  op seeds 1000-1039 and 13000, 13002, 8007, 23000.  Per run: the final
  true fidelity, the sweeps over all stages and the final bond dimensions;
  over seeds 1000-1039: how many end below F 0.9 (stuck) and below 0.995,
  and the median and lowest F.
* ``w10``: the criterion-4/5 run (W N=10 to 10^4 shots, no early stop) for
  seeds 42-45: the power-law exponents of both distances and, after 8
  virtual runs (seed 100 * seed + 42), the calibration constant and the
  worst |F_est - F_true| over stages with F_true >= 0.98.
* ``qudit``: random D=2 targets (``mps._gaussian_chain``, seed 5) with
  q=3 N=6 and q=4 N=5, read through ``target.path``, trained to 6000 shots.

Runs are spread over two worker processes with one BLAS thread each, as
``mpstomo.parallel`` runs them; every run's bytes are independent of the
BLAS thread count, so the figures are too.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from multiprocessing import get_context
from pathlib import Path

# before numpy loads, here and in the workers, which inherit the environment;
# two workers with an inherited thread count each would oversubscribe the CPUs
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from mpstomo import (  # noqa: E402
    ExperimentConfig, TargetSpec, TrainConfig, estimate_fidelity, fit_power_law,
)
from mpstomo import runner  # noqa: E402
from mpstomo.estimation import run_virtual  # noqa: E402
from mpstomo.mps import _gaussian_chain  # noqa: E402

W8_SEEDS = list(range(1000, 1040))
W8_EXTRA = [13000, 13002, 8007, 23000]
W10_SEEDS = [42, 43, 44, 45]
W10_VIRTUAL_RUNS = 8
QUDITS = [(3, 6), (4, 5)]

W8 = ExperimentConfig(
    target=TargetSpec("W", 8, theta=0.1), fidelity_threshold=0.995, batch_max=500,
    max_replicas=4000, stop_on_threshold=False, train=TrainConfig(d_cap=8),
)
W10 = replace(W8, target=TargetSpec("W", 10, theta=0.1), max_replicas=10_000)
QUDIT = replace(W8, max_replicas=6000, seed=5)


def _tomography(cfg):
    """run_tomography, with the sweeps that train_stage reports counted."""
    sweeps = 0
    train_stage = runner.train_stage

    def counted(mps, dataset, config):
        nonlocal sweeps
        model, reports = train_stage(mps, dataset, config)
        sweeps += len(reports) - 1  # the last report closes the stage
        return model, reports

    runner.train_stage = counted
    try:
        history, model = runner.run_tomography(cfg)
    finally:
        runner.train_stage = train_stage
    return history, model, sweeps


def _record(history, model, sweeps):
    return {
        "f_true": history[-1].f_true,
        "sweeps": sweeps,
        "bond_dims": [model.tensor(j).shape[2] for j in range(model.n_sites - 1)],
    }


def w8_run(seed):
    return {"seed": seed, **_record(*_tomography(replace(W8, seed=seed)))}


def w10_tomography(seed):
    return _tomography(replace(W10, seed=seed))


def qudit_run(case):
    q, n = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "target.mps"
        _gaussian_chain(n, q, 2, seed=5).save(path)
        out = _record(*_tomography(replace(QUDIT, target=str(path))))
    return {"q": q, "n": n, **out}


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


def _w10_record(seed, history, model, sweeps):
    cfg = replace(W10, seed=seed)
    fit_real = fit_power_law(history, "r_real", tail_fraction=1.0, min_replicas=500)
    fit_succ = fit_power_law(history, "r_succ", tail_fraction=1.0, min_replicas=500)
    calibration = run_virtual(model, cfg, n_runs=W10_VIRTUAL_RUNS, seed=100 * seed + 42)
    errors = [
        abs(estimate_fidelity(calibration.mean, rec.r_succ)[1] - rec.f_true)
        for rec in history if rec.f_true >= 0.98 and rec.r_succ is not None
    ]
    return {
        "seed": seed, "f_true": history[-1].f_true, "sweeps": sweeps,
        "alpha_real": fit_real.alpha, "alpha_succ": fit_succ.alpha,
        "c_mean": calibration.mean, "c_std": calibration.std,
        "f_est_err_max": max(errors), "f_est_stages": len(errors),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", default="w8,w10,qudit")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    sets = args.sets.split(",")
    result = {"command": " ".join(["PYTHONPATH=src python3 scripts/quality.py", *(argv or sys.argv[1:])])}
    with ProcessPoolExecutor(2, mp_context=get_context("spawn")) as pool:
        if "w8" in sets:
            runs = list(pool.map(w8_run, W8_SEEDS + W8_EXTRA))
            result["w8"] = {
                "summary_1000_1039": _w8_summary(runs[: len(W8_SEEDS)]),
                "runs": runs,
            }
        if "qudit" in sets:
            result["qudit"] = list(pool.map(qudit_run, QUDITS))
        if "w10" in sets:
            tomographies = list(pool.map(w10_tomography, W10_SEEDS))
    if "w10" in sets:
        # the virtual runs spread over the CPUs themselves
        result["w10"] = [_w10_record(s, *t) for s, t in zip(W10_SEEDS, tomographies)]
    text = json.dumps(result, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
