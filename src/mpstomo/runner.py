"""Config-driven experiment loop: measure, train, estimate, stop.

A run interleaves batches of random-basis shots with training stages and
per-stage bookkeeping (distances, fidelities, running power-law fits).
In simulation mode the target is known, so the true fidelity is recorded
and drives the stop rule; blind mode hides it and relies on the estimated
fidelity, which needs a calibrated convergence constant (``c_estimate``).
All artifacts are plain files: a history CSV, the final state, the shot
record, and an echo of the resolved config.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import MISSING, astuple, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, build_experiment_config, config_to_text, nonfinite_field
from .config import parse_config_text, scalar_fields
from .errors import DegenerateStateError, EstimateOutOfRegime, FormatError, ParameterError
from .errors import utf8_lines
from .estimation import (
    StageRecord,
    estimate_fidelity,
    fit_power_law,
    per_site_fidelity,
    r_succ,
)
from .measurement import Dataset, measure_batch
from .mps import MatrixProductState, load_mps, random_init
from .states import TargetSpec, build_target
from .training import train_stage

# bond dimension of the random starting state
_INIT_BOND_DIM = 2
# largest |norm - 1| of a target; fidelities against it are clamped at 1,
# so an unnormalized target would read as perfectly reconstructed
_NORM_TOL = 1e-9


def resolve_target(target) -> MatrixProductState:
    """The state a config's ``target`` names, which must be normalized."""
    if isinstance(target, MatrixProductState):
        state = target
    elif isinstance(target, TargetSpec):
        state = build_target(target)
    elif isinstance(target, (str, Path)):
        state = load_mps(target)
    else:
        raise ParameterError(f"cannot interpret target {target!r}")
    norm = state.norm()
    if not abs(norm - 1.0) <= _NORM_TOL:
        raise ParameterError(f"target state has norm {norm!r}, not 1 within {_NORM_TOL:g}")
    return state


def _try_fit(history, field_name):
    try:
        return fit_power_law(history, field_name).alpha
    except ParameterError:
        return None


def run_tomography(config: ExperimentConfig):
    """Run the full loop; returns (history, final state).

    Stages draw geometrically growing batches of noisy random-basis shots,
    retrain on the accumulated dataset, and record a StageRecord.  The run
    stops when the fidelity signal stays at or above the threshold for two
    consecutive stages (if enabled) or when max_replicas is exhausted.  A
    stage record with a value that is not finite raises DegenerateStateError
    before any artifact is written.
    """
    config.validate()
    target = resolve_target(config.target)
    n, q = target.n_sites, target.local_dim
    shot_rng = np.random.default_rng([config.seed, 0x5E1EC7])
    model = random_init(n, q, _INIT_BOND_DIM, seed=config.seed)
    dataset = Dataset(n, q)
    history: list[StageRecord] = []
    prev_model = prev_signal = None
    batch = config.batch_initial
    if config.output_dir is not None:
        config_to_text(config)  # a config run.cfg cannot hold raises before the first stage
    while len(dataset) < config.max_replicas:
        count = min(batch, config.max_replicas - len(dataset))
        dataset.extend(measure_batch(target, count, config.noise_epsilon, shot_rng))
        model, loss_hist = train_stage(model, dataset, config.train)
        # the last loss report closes the stage; the others are its sweeps
        rec = StageRecord(replicas=len(dataset), nll=loss_hist[-1].nll, sweeps=len(loss_hist) - 1)
        if not config.blind:
            rec.f_true, rec.r_real = model.fidelity_distance(target)
        if prev_model is not None:
            rec.r_succ = r_succ(prev_model, model)
        if config.c_estimate is not None and rec.r_succ is not None:
            rec.c_est = config.c_estimate
            try:
                _, rec.f_est = estimate_fidelity(config.c_estimate, rec.r_succ)
            except EstimateOutOfRegime:
                rec.f_est = None
        # checked before the fits, which take logs of these values; the fits
        # of finite stages are finite
        bad = nonfinite_field(rec)
        if bad is not None:
            raise DegenerateStateError(
                f"stage {len(history)}: {bad[0]} is not finite ({bad[1]!r})"
            )
        history.append(rec)
        rec.alpha_real = _try_fit(history, "r_real")
        rec.alpha_succ = _try_fit(history, "r_succ")
        prev_model = model
        signal = rec.f_est if config.blind else rec.f_true
        if config.stop_on_threshold and _stable(prev_signal, signal, config.fidelity_threshold):
            break
        prev_signal = signal
        # capped before rounding: a large batch_growth overflows to inf
        batch = max(1, int(round(min(batch * config.batch_growth, config.max_replicas))))
        if config.batch_max > 0:
            batch = min(batch, config.batch_max)
    if config.output_dir is not None:
        write_run_dir(config.output_dir, config, history, model, dataset, loss_hist)
    return history, model


def _stable(a, b, threshold) -> bool:
    """Whether two consecutive stages' fidelities are both at or above ``threshold``."""
    return None not in (a, b) and min(a, b) >= threshold


def replicas_to_threshold(history, threshold):
    """Replica count at the first stage of the earliest pair of consecutive
    stages with the true fidelity at or above ``threshold``; None if it
    never stabilized."""
    for a, b in zip(history, history[1:]):
        if _stable(a.f_true, b.f_true, threshold):
            return a.replicas
    return None


# -- artifacts -------------------------------------------------------------------


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _history_header() -> tuple[str, ...]:
    return ("stage", *scalar_fields(StageRecord))


def _write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows`` of raw values, each cell through ``_fmt``."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(map(_fmt, row) for row in rows)


def write_history(path, history) -> None:
    names = scalar_fields(StageRecord)
    rows = ([i, *(getattr(rec, name) for name in names)] for i, rec in enumerate(history))
    _write_csv(path, _history_header(), rows)


def write_loss_history(path, reports) -> None:
    """Per-sweep loss breakdown: sweep, lambda, nll, penalty, total."""
    rows = ([i, r.lam, r.nll, r.penalty, r.total] for i, r in enumerate(reports))
    _write_csv(path, ("sweep", "lambda", "nll", "penalty", "total"), rows)


def read_history(path) -> list[StageRecord]:
    types = scalar_fields(StageRecord)
    required = {f.name for f in fields(StageRecord) if f.default is MISSING}
    header = _history_header()
    history = []
    reader = csv.reader(utf8_lines(path, newline=""))
    try:
        first = next(reader)
    except StopIteration:
        raise FormatError(f"{path}: line 1: empty history") from None
    # a history written before StageRecord.sweeps has every column but that last one
    if tuple(first) not in (header, header[:-1]):
        raise FormatError(f"{path}: line 1: unexpected header {first}")
    for ln, row in enumerate(reader, start=2):
        if len(row) != len(first):
            raise FormatError(f"{path}: line {ln}: expected {len(first)} fields")
        values = {}
        for (name, typ), raw in zip(types.items(), row[1:]):
            if raw == "":
                if name in required:
                    raise FormatError(f"{path}: line {ln}: {name} is mandatory")
                continue
            try:
                values[name] = typ(raw)
            except ValueError as exc:
                raise FormatError(f"{path}: line {ln}: bad field {raw!r}") from exc
            if typ is float and not math.isfinite(values[name]):
                raise FormatError(f"{path}: line {ln}: {name} is not finite ({raw!r})")
        history.append(StageRecord(**values))
    if not history:
        raise FormatError(f"{path}: no stages")
    return history


def write_run_dir(
    out_dir, config, history, model=None, dataset=None, loss_reports=None, source="real"
) -> None:
    """Write a run's artifacts; ``model``, ``dataset`` and ``loss_reports``
    are each left out when None."""
    run_cfg = config_to_text(config) + f"source = {source}\n"  # may raise: before any file
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_history(out / "history.csv", history)
    if model is not None:
        model.save(out / "model.mps")
    if dataset is not None:
        dataset.to_file(out / "shots.txt")
    if loss_reports is not None:
        write_loss_history(out / "losses.csv", loss_reports)
    (out / "run.cfg").write_text(run_cfg)


# -- scaling suites ---------------------------------------------------------------


@dataclass
class SuiteRow:
    """Replica demand at one grid value; mean and std are None when no
    seed reached the threshold."""

    value: int
    mean_replicas: float | None
    std_replicas: float | None
    n_converged: int
    n_failed: int


@dataclass
class SuiteResult:
    kind: str
    rows: list[SuiteRow]
    exponent: float | None = None


def _suite_config(config, kind, value, seed):
    if not isinstance(config.target, TargetSpec):
        raise ParameterError("scaling suites need a TargetSpec target")
    if kind == "size":
        spec = replace(config.target, n_sites=value, seed=seed)
    elif kind == "bond":
        spec = replace(config.target, kind="Random", d_max=value, seed=seed)
    else:
        raise ParameterError(f"unknown suite kind {kind!r}")
    return replace(
        config, target=spec, seed=seed, output_dir=None, stop_on_threshold=True
    )


def _suite_run(config):
    """One suite run: the replica count where its true fidelity stabilized."""
    history, _ = run_tomography(config)
    return replicas_to_threshold(history, config.fidelity_threshold)


def run_scaling_suite(kind, grid, config, n_seeds=8, out_path=None) -> SuiteResult:
    """Replica demand versus system size or target bond dimension.

    For each grid value, runs ``n_seeds`` tomographies to the configured
    fidelity threshold and records the replica count where the true fidelity
    stabilized.  The bond suite also fits replicas = gamma * d_max**beta.
    The directory of ``out_path`` is made once the grid, the seed count and
    the run configs are known to be valid.
    The runs are spread over the CPUs this process may use (see
    ``mpstomo.parallel``); the result is that of running them one after
    another.  The longest runs are handed out first: grid values from the
    largest down, seeds in order within a value.  If several runs fail, the
    error raised is that of the first failed run in that order.
    """
    from .parallel import map_runs

    if not grid:
        raise ParameterError("empty suite grid")
    if n_seeds < 1:
        raise ParameterError(f"need at least one seed per grid value, got {n_seeds}")
    configs = [
        _suite_config(config, kind, value, config.seed + 997 * gi + s)
        for gi, value in enumerate(grid)
        for s in range(n_seeds)
    ]
    for c in configs:
        c.validate()
    if out_path is not None:
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    order = sorted(range(len(configs)), key=lambda i: -grid[i // n_seeds])
    demand = [None] * len(configs)
    for i, v in zip(order, map_runs(_suite_run, [configs[i] for i in order])):
        demand[i] = v
    rows = []
    for gi, value in enumerate(grid):
        runs = demand[gi * n_seeds : (gi + 1) * n_seeds]
        reached = [v for v in runs if v is not None]
        failed = len(runs) - len(reached)
        mean = float(np.mean(reached)) if reached else None
        std = float(np.std(reached)) if reached else None
        rows.append(SuiteRow(value, mean, std, len(reached), failed))
    exponent = None
    if kind == "bond":
        ok = [r for r in rows if r.n_converged > 0]
        if len(ok) >= 2:
            slope, _ = np.polyfit(
                np.log([r.value for r in ok]), np.log([r.mean_replicas for r in ok]), 1
            )
            exponent = float(slope)
    result = SuiteResult(kind, rows, exponent)
    if out_path is not None:
        lines = [astuple(r) for r in rows]
        if exponent is not None:
            lines.append(["exponent", exponent, None, None, None])
        header = [kind, *(f.name for f in fields(SuiteRow)[1:])]
        _write_csv(out_path, header, lines)
    return result


# -- reporting --------------------------------------------------------------------


def _read_run_dir(path):
    """(history, config, source) of a run directory; bad keys and values of
    its ``run.cfg`` raise ParameterError, and a missing one raises OSError."""
    path = Path(path)
    history = read_history(path / "history.csv")
    cfg_file = path / "run.cfg"
    meta = parse_config_text("".join(utf8_lines(cfg_file)), str(cfg_file))
    try:
        cfg = build_experiment_config(meta)
    except ParameterError as exc:
        raise ParameterError(f"{cfg_file}: {exc}") from None
    return history, cfg, meta.get("source", "real")


_SUMMARY = ("run", "source", "kind", "n", "d_max", "epsilon", "threshold",
            "replicas_to_threshold", "replicas_total", "f_true", "f_per_site", "f_est")


def report(run_dirs, out_dir) -> dict[str, Path]:
    """Summaries and figure-ready data series from finished run directories.

    Emits summary.csv plus per-figure series: replica demand versus system
    size (fig2), versus target bond dimension (fig3), stagewise distances
    and their ratio with a real/virtual source column (fig4), and replica
    demand versus noise level (fig5).  fig2, fig3 and fig5 are columns of
    the summary rows of real runs with a TargetSpec target that reached the
    threshold; virtual runs appear in summary.csv and fig4 only.  A run is
    named by its path relative to the deepest directory holding them all.
    """
    dirs = [Path(d) for d in run_dirs]
    if not dirs:
        raise ParameterError("no run directories given")
    root = os.path.commonpath([os.path.dirname(os.path.abspath(d)) for d in dirs])
    summary, fig4 = [], []
    for d in dirs:
        history, cfg, source = _read_run_dir(d)
        name, last = os.path.relpath(d, root), history[-1]
        spec = cfg.target if isinstance(cfg.target, TargetSpec) else None
        n = spec and spec.n_sites
        f_ps = None if last.f_true is None or not n else per_site_fidelity(last.f_true, n)
        thr = cfg.fidelity_threshold
        summary.append(dict(zip(_SUMMARY, (
            name, source, spec and spec.kind, n, spec and spec.d_max, cfg.noise_epsilon, thr,
            replicas_to_threshold(history, thr), last.replicas, last.f_true, f_ps, last.f_est,
        ))))
        for i, rec in enumerate(history):
            ratio = None
            if rec.r_real is not None and rec.r_succ not in (None, 0.0):
                ratio = rec.r_real**2 / rec.r_succ
            fig4.append([name, source, i, rec.replicas, rec.r_real, rec.r_succ, ratio])
    demand = [
        r for r in summary
        if r["source"] != "virtual" and r["kind"] and r["replicas_to_threshold"] is not None
    ]
    sized = [r for r in demand if r["kind"] != "Random"]
    random = [r for r in demand if r["kind"] == "Random"]

    def series(cols, runs):  # summary columns, then replicas_to_threshold as "replicas"
        return (*cols, "replicas"), [[r[c] for c in (*cols, "replicas_to_threshold")] for r in runs]

    tables = {
        "summary.csv": (_SUMMARY, [r.values() for r in summary]),
        "fig2_size.csv": series(("kind", "n", "threshold"), sized),
        "fig3_bond.csv": series(("n", "d_max"), random),
        "fig4_convergence.csv": (
            ("run", "source", "stage", "replicas", "r_real", "r_succ", "ratio"), fig4
        ),
        "fig5_noise.csv": series(("kind", "n", "epsilon"), demand),
    }
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in tables.items():
        _write_csv(out / name, header, rows)
    return {name: out / name for name in tables}
