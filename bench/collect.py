"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/collect.py --seeds 1-10 [--workloads a,b] [--seconds 40]
                             [--trace 0] [--out summary.json]

Runs ``bench/run.py`` once per workload and seed, one after another, from
the checkout root, every workload for one seed before the next seed.  For
every metric it reports the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the interquartile
distance as a share of the median.  Exits 1 if any run fails its checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("w8_certify", "shots_io")
RUN_TIMEOUT_S = 900


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, required=True, help="N or LO-HI")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seconds", default="40")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    names = args.workloads.split(",")
    per_metric = {name: {} for name in names}
    units, ok = {}, True
    # seeds in the outer loop, so that a slow spell of the machine is
    # shared by the workloads instead of falling on one of them
    for seed in args.seeds:
        for name in names:
            done = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", name, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", args.trace],
                cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=True,
            )
            result = json.loads(done.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            for k, m in result["metrics"].items():
                per_metric[name].setdefault(k, []).append(m["value"])
                units[k] = m["unit"]
            print(f"{name} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()
                             if k in ("wall_s", "setup_s", "peak_rss_mb")),
                  flush=True)
    summary = {name: {k: {**summarize(v), "unit": units[k]} for k, v in metrics.items()}
               for name, metrics in per_metric.items()}
    for name, metrics in summary.items():
        for k, s in metrics.items():
            print(f"  {name} {k}: median {s['median']:.6g} {s['unit']} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} (n={s['n']})")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
