"""Command-line entry point.

Subcommands: target, tomo, suite, virtual, fit, report.  Exit codes:
0 on success, 2 on parameter/format errors, 3 on numeric or degenerate
failures.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import ExperimentConfig, build_experiment_config, load_config
from .errors import ParameterError, ResourceError, TomographyError
from .estimation import fit_power_law, run_virtual
from .mps import load_mps
from .runner import (
    read_history,
    report,
    run_scaling_suite,
    run_tomography,
    write_run_dir,
)
from .states import TargetSpec, build_target


def _config_from_args(args) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if getattr(args, "config", None):
        cfg = load_config(args.config, cfg)
    overrides = {}
    for kv in getattr(args, "set", None) or []:
        if "=" not in kv:
            raise ParameterError(f"--set expects KEY=VALUE, got {kv!r}")
        key, value = kv.split("=", 1)
        overrides[key.strip()] = value.strip()
    if overrides:
        cfg = build_experiment_config(overrides, cfg)
    cfg.seed = args.seed
    cfg.output_dir = args.out
    return cfg


def _cmd_target(args) -> int:
    spec = TargetSpec(
        kind=args.kind, n_sites=args.n, theta=args.theta, d_max=args.d_max, seed=args.seed
    )
    build_target(spec).save(args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_tomo(args) -> int:
    cfg = _config_from_args(args)
    history, _ = run_tomography(cfg)
    last = history[-1]
    print(
        f"stages={len(history)} replicas={last.replicas} "
        f"f_true={last.f_true} f_est={last.f_est}"
    )
    return 0


def _cmd_suite(args) -> int:
    cfg = _config_from_args(args)
    try:
        grid = [int(g) for g in args.grid.split(",") if g]
    except ValueError:
        raise ParameterError(f"--grid expects comma-separated integers: {args.grid!r}") from None
    out_path = Path(args.out) / f"suite_{args.kind}.csv"
    result = run_scaling_suite(args.kind, grid, cfg, n_seeds=args.seeds, out_path=out_path)
    for row in result.rows:
        stats = (row.mean_replicas, row.std_replicas)
        mean, std = ("" if v is None else f"{v:.1f}" for v in stats)
        print(
            f"{args.kind}={row.value} mean|V|={mean} std={std} "
            f"ok={row.n_converged} failed={row.n_failed}"
        )
    if result.exponent is not None:
        print(f"fitted exponent = {result.exponent:.3f}")
    return 0


def _cmd_virtual(args) -> int:
    cfg = _config_from_args(args)
    trained = load_mps(args.model)
    result = run_virtual(trained, cfg, n_runs=args.runs, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i, (run_cfg, hist) in enumerate(zip(result.configs, result.histories)):
        # run.cfg names the model file the run trained against
        run_cfg = replace(run_cfg, target=args.model)
        write_run_dir(out / f"virtual_{i:02d}", run_cfg, hist, source="virtual")
    (out / "calibration.txt").write_text(
        f"c_mean = {result.mean!r}\nc_std = {result.std!r}\nn_runs = {args.runs}\n"
    )
    print(f"c_estimate = {result.mean:.6g} +- {result.std:.6g} over {args.runs} runs")
    return 0


def _cmd_fit(args) -> int:
    history = read_history(args.history)
    fit = fit_power_law(history, args.field, tail_fraction=args.tail)
    print(
        f"coeff={fit.coeff!r} alpha={fit.alpha!r} "
        f"window={fit.window[0]}..{fit.window[1]} residual={fit.residual!r}"
    )
    return 0


def _cmd_report(args) -> int:
    dirs = args.runs
    if len(dirs) == 1 and Path(dirs[0]).is_dir():
        root = Path(dirs[0])
        nested = sorted(p.parent for p in root.glob("**/history.csv"))
        if nested:
            dirs = nested
    written = report(dirs, args.out)
    for name in sorted(written):
        print(f"wrote {written[name]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpstomo",
        description="MPS tomography from single-shot random-basis measurements",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("target", help="build and serialize a target state")
    p.add_argument("--kind", required=True, choices=["w", "cluster", "dimer", "random"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--d-max", dest="d_max", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_target)

    def add_run_args(p):
        p.add_argument("--config", help="config file (key = value lines)")
        p.add_argument(
            "--set", action="append", metavar="KEY=VALUE",
            help="override a config key (repeatable)",
        )
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--out", required=True)

    p = sub.add_parser("tomo", help="run one tomography experiment")
    add_run_args(p)
    p.set_defaults(func=_cmd_tomo)

    p = sub.add_parser("suite", help="replica scaling over size or bond dimension")
    add_run_args(p)
    p.add_argument("--kind", required=True, choices=["size", "bond"])
    p.add_argument("--grid", required=True, help="comma-separated grid values")
    p.add_argument("--seeds", type=int, default=8)
    p.set_defaults(func=_cmd_suite)

    p = sub.add_parser("virtual", help="calibrate the convergence constant")
    add_run_args(p)
    p.add_argument("--model", required=True, help="trained state (.mps)")
    p.add_argument("--runs", type=int, default=8, help="virtual runs (default: 8)")
    p.set_defaults(func=_cmd_virtual)

    p = sub.add_parser("fit", help="power-law fit on a history CSV")
    p.add_argument("--history", required=True)
    p.add_argument("--field", default="r_real", choices=["r_real", "r_succ"])
    p.add_argument("--tail", type=float, default=0.5)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("report", help="summaries and figure data from run dirs")
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, ResourceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TomographyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
