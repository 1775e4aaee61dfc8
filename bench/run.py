"""mpstomo benchmark: one workload, one seed, one fresh interpreter.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; mpstomo is imported from ``src/``.
Workloads are defined in ``workloads.py``.  The run repeats the workload's
op while the next op is expected to end within ``--seconds``, and at
least ``MIN_OPS`` times.  Op k draws its shots from the op seed
``--seed * OP_SEED_STRIDE + k`` (in a traced run, k counts blocks of four
ops), so that a run averages the op's time over several inputs, all of
them made from ``--seed``: the time of a tomography depends on its shots.

With ``--trace 0`` the metrics are the end-to-end ones: the median wall
time over the ops, the median set-up time over ``SETUP_SAMPLES`` fresh
interpreters, and the peak resident memory.  Set-up is timed once before
the first op and once after each op, so that its samples are spread over
the run like the ops are and both see the same drift in machine speed;
the samples still missing at the end are taken then.  With ``--trace 1``
ops run in blocks of untraced, traced, traced, untraced (see
``tracing.py``); the metrics are the per-layer ones of the traced ops
(median over them), plus ``bench.tracing_overhead_frac``, the traced
median wall time over the untraced one, minus 1, and ``bench.cpu_s``, the
median CPU time of the untraced ops.  CPU time counts every thread, BLAS
included, and any child process an op waits for; every run prints it.
It is not an end-to-end metric because idle BLAS threads spin for a time
that swings with the load of the machine, which makes it vary more across
runs than any bound allows.  Per-layer metrics are 0 on layers the
workload never reaches; a percentile is 0 unless ten samples lie beyond
it.

Every op checks its outputs; an op that raises or fails a check counts in
``failed`` and is never dropped.  Ops with one op seed must produce the
same output digests, within a run and across runs of the same source tree
(recorded under ``.bench_runs/determinism``).  BLAS thread variables are
recorded as inherited, never set.

The last line of standard output is the JSON result; the lines before it
give the environment, each op, and every metric with its unit and sample
count.  The full record, and the spans of a traced run, go under
``.bench_runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_runs"
MIN_OPS = 2
OP_SEED_STRIDE = 1000
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
QUALITY_UNITS = {"shots_to_threshold": "count", "f_est_out_of_regime": "count"}


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_vars": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def _source_digest() -> str:
    """Digest of the package and of the workload definitions."""
    h = hashlib.sha256()
    for path in [*sorted((SRC / "mpstomo").glob("*.py")), BENCH / "workloads.py"]:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_seconds():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0


def _setup_time(name, seed, workdir) -> float:
    done = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), name, str(seed), str(workdir)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _check_determinism(name, seed, ops):
    """Compare the digests of each op with those of earlier ops with the
    same op seed, in this run and in earlier runs on the same source and
    BLAS settings; the record keeps the first digests of each op seed."""
    env_key = hashlib.sha256(
        json.dumps({v: os.environ.get(v) for v in BLAS_THREAD_VARS}, sort_keys=True).encode()
    ).hexdigest()[:8]
    record = OUT / "determinism" / f"{name}-seed{seed}-{_source_digest()}-{env_key}.json"
    seen = json.loads(record.read_text()) if record.exists() else {}
    for o in ops:
        if o["failures"]:
            continue
        key = str(o["op_seed"])
        if key not in seen:
            seen[key] = o["digests"]
        elif seen[key] != o["digests"]:
            o["failures"].append(f"digests differ from an earlier op with op seed {key}: {record}")
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps(seen, indent=1, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mpstomo" / "__init__.py").is_file():
        print(f"error: no mpstomo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    prepare, op = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = OUT / "work" / tag
    workdir.mkdir(parents=True, exist_ok=True)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    ops = []  # one dict per op
    setup = []  # set-up times of an untraced run
    # a traced run times ops in untraced, traced, traced, untraced blocks,
    # so that a steady drift in machine speed cancels out of the tracing
    # overhead; the ops of a block share their op seed, and the run ends
    # only at the end of a block
    block = 4 if tracer is not None else 1
    try:
        inputs = prepare(args.seed, workdir)
        begin = time.perf_counter()
        if tracer is None:
            setup.append(_setup_time(args.workload, args.seed, workdir))
        while True:
            traced = tracer is not None and len(ops) % 4 in (1, 2)
            op_seed = args.seed * OP_SEED_STRIDE + len(ops) // block
            if traced:
                tracer.install(len(ops))
            failures, outcome = [], None
            t0, c0 = time.perf_counter(), _cpu_seconds()
            try:
                outcome = op(inputs, op_seed, workdir)
                failures = outcome.failures
            except Exception as exc:  # a failing op is counted, not fatal
                failures = [f"{type(exc).__name__}: {exc}"]
                traceback.print_exc(file=sys.stderr)
            finally:
                wall, cpu = time.perf_counter() - t0, _cpu_seconds() - c0
                if traced:
                    tracer.uninstall()
            ops.append({
                "op_seed": op_seed, "traced": traced, "wall_s": wall, "cpu_s": cpu,
                "failures": failures,
                "digests": outcome.digests if outcome else {},
                "quality": outcome.quality if outcome else {},
            })
            print(f"op {len(ops) - 1}: op_seed={op_seed} traced={int(traced)} "
                  f"wall_s={wall:.4f} cpu_s={cpu:.4f} "
                  f"quality={json.dumps(ops[-1]['quality'])} failures={failures}", flush=True)
            if tracer is None and len(setup) < SETUP_SAMPLES:
                setup.append(_setup_time(args.workload, args.seed, workdir))
            elapsed = time.perf_counter() - begin
            next_block_s = block * elapsed / len(ops)
            if (len(ops) >= MIN_OPS and len(ops) % block == 0
                    and elapsed + next_block_s > args.seconds):
                break

        _check_determinism(args.workload, args.seed, ops)
        peak_rss = _peak_rss_mb()
        while tracer is None and len(setup) < SETUP_SAMPLES:
            setup.append(_setup_time(args.workload, args.seed, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [o for o in ops if not o["traced"]]
    cpu_s = statistics.median(o["cpu_s"] for o in plain)
    failed = sum(1 for o in ops if o["failures"])
    quality = {k: statistics.median(o["quality"][k] for o in ops if k in o["quality"])
               for k in sorted({k for o in ops for k in o["quality"]})}
    if tracer is None:
        metrics = {
            "wall_s": statistics.median(o["wall_s"] for o in plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss,
        }
        units = END_TO_END_UNITS
        counts = {"wall_s": len(plain), "setup_s": len(setup), "peak_rss_mb": 1}
    else:
        per_run = [tracer.layer_metrics(run) for run, o in enumerate(ops) if o["traced"]]
        metrics = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
        metrics["estimation.f_est_err"] = quality.get("f_est_err", 0.0)
        metrics["runner.shots_to_threshold"] = quality.get("shots_to_threshold", 0)
        metrics["runner.f_true_final"] = quality.get("f_true_final", 0.0)
        metrics["bench.cpu_s"] = cpu_s
        metrics["bench.tracing_overhead_frac"] = (
            statistics.median(o["wall_s"] for o in ops if o["traced"])
            / statistics.median(o["wall_s"] for o in plain) - 1.0
        )
        units = tracing.LAYER_UNITS
        metrics = {k: metrics[k] for k in units}
        n_traced = len(per_run)
        counts = dict.fromkeys(units, n_traced)

    for k, v in metrics.items():
        print(f"metric {k} = {v!r} {units[k]} (median of {counts[k]})")
    for k, v in quality.items():
        print(f"quality {k} = {v!r} {QUALITY_UNITS.get(k, '1')} (median of {len(ops)} ops)")
    print(f"quality failed_frac = {failed / len(ops)!r} ratio ({failed} of {len(ops)} ops)")
    print(f"info cpu_s = {cpu_s!r} s (median of {len(plain)} untraced ops)")

    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "setup_s": setup, "ops": ops,
              "quality": quality, "result": result}
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if tracer is not None:
        OUT.joinpath("spans").mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / "spans" / f"{tag}.tsv.gz")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
