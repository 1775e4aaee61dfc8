"""Convergence tracking, power-law fits, and target-free fidelity estimation.

Stage histories record, per measurement-accumulation stage, the dataset
size and the distances that drive estimation: r_real (to the true target,
available in simulation) and r_succ (to the previous stage's model, always
available).  Both decay as power laws in the replica count; because r_real
falls like the -1/2 power and r_succ like the -1 power, the ratio
r_real^2 / r_succ settles to a constant.  Virtual tomography, rerunning
the scheme against the trained state as a stand-in target, measures that
constant without touching the physical target, which turns the observable
r_succ into a fidelity estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import EstimateOutOfRegime, ParameterError

TAIL_MIN_REPLICAS = 100


@dataclass
class StageRecord:
    """Per-stage snapshot of one tomography run."""

    replicas: int
    nll: float
    r_real: float | None = None
    r_succ: float | None = None
    f_true: float | None = None
    f_est: float | None = None
    c_est: float | None = None
    alpha_real: float | None = None
    alpha_succ: float | None = None
    sweeps: int | None = None  # last: histories written before it end at alpha_succ


@dataclass
class PowerLawFit:
    """Least-squares fit of R = coeff * |V|**alpha on log-log axes."""

    coeff: float
    alpha: float
    window: tuple[int, int]
    residual: float


@dataclass
class CalibrationResult:
    """Spread of the tail ratio r_real^2 / r_succ over virtual runs, with
    each run's config and history."""

    mean: float
    std: float
    values: list[float]
    histories: list[list[StageRecord]] = field(default_factory=list)
    configs: list = field(default_factory=list)


def r_succ(prev, curr) -> float:
    """Distance between two successive tomographic states."""
    return prev.fidelity_distance(curr)[1]


def per_site_fidelity(fidelity, n_sites) -> float:
    """Size-normalized convergence criterion F**(1/N)."""
    if n_sites < 1 or not 0.0 <= fidelity <= 1.0:
        raise ParameterError("need n_sites >= 1 and fidelity in [0, 1]")
    return float(fidelity ** (1.0 / n_sites))


def _value(record, field_name):
    v = getattr(record, field_name)
    return v if v is not None and v > 0 else None


def _tail_stage_indices(history, field_name, tail_fraction, min_replicas):
    if not 0.0 < tail_fraction <= 1.0:
        raise ParameterError("tail_fraction must lie in (0, 1]")
    usable = [
        i
        for i, rec in enumerate(history)
        if rec.replicas >= min_replicas and _value(rec, field_name) is not None
    ]
    # the window is the trailing fraction, widened to the 4-stage minimum
    count = min(len(usable), max(int(math.ceil(tail_fraction * len(usable))), 4))
    return usable[len(usable) - count :]


def fit_power_law(
    history, field_name, tail_fraction=0.5, min_replicas=TAIL_MIN_REPLICAS
) -> PowerLawFit:
    """Fit R = coeff * |V|**alpha over the tail of a stage history.

    ``field_name`` picks the distance column ('r_real' or 'r_succ'); the fit
    is ordinary least squares on (ln |V|, ln R) over the last
    ``tail_fraction`` of the stages that have a positive value and at least
    ``min_replicas`` replicas.  Needs four such stages.
    """
    idx = _tail_stage_indices(history, field_name, tail_fraction, min_replicas)
    if len(idx) < 4:
        raise ParameterError(
            f"power-law fit needs >= 4 usable tail stages, found {len(idx)}"
        )
    x = np.log([history[i].replicas for i in idx])
    y = np.log([_value(history[i], field_name) for i in idx])
    alpha, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (alpha * x + intercept)) ** 2)))
    return PowerLawFit(
        coeff=float(np.exp(intercept)),
        alpha=float(alpha),
        window=(idx[0], idx[-1]),
        residual=resid,
    )


def estimate_fidelity(coeff, r_succ_now) -> tuple[float, float]:
    """Distance and fidelity estimates from the calibrated constant.

    R_est = sqrt(coeff * r_succ_now) and F_est = sqrt(1 - 2 R_est^2).
    Raises EstimateOutOfRegime when coeff * r_succ_now exceeds 1/2, where
    the estimate stops being meaningful.
    """
    if coeff <= 0:
        raise ParameterError("calibration constant must be positive")
    if r_succ_now < 0:
        raise ParameterError("r_succ must be >= 0")
    x = coeff * r_succ_now
    if x > 0.5:
        raise EstimateOutOfRegime(
            f"coeff * r_succ = {x:.3g} > 1/2; accumulate more data first"
        )
    r_est = math.sqrt(x)
    return r_est, math.sqrt(1.0 - 2.0 * x)


def tail_ratio(history, tail_fraction=0.5, min_replicas=TAIL_MIN_REPLICAS) -> float:
    """Tail average of r_real^2 / r_succ over a fully monitored history."""
    idx = [
        i
        for i in _tail_stage_indices(history, "r_real", tail_fraction, min_replicas)
        if _value(history[i], "r_succ") is not None
    ]
    if not idx:
        raise ParameterError("history has no tail stages with both distances")
    vals = [history[i].r_real ** 2 / history[i].r_succ for i in idx]
    return float(np.mean(vals))


def _virtual_run(config):
    """One virtual run: its history and tail ratio."""
    from .runner import run_tomography  # deferred: runner depends on this module

    history, _ = run_tomography(config)
    return history, tail_ratio(history)


def run_virtual(trained, protocol, n_runs=8, seed=0) -> CalibrationResult:
    """Calibrate the convergence constant by virtual tomography.

    Runs ``n_runs`` independent full tomography simulations that use
    ``trained`` as a known target under the same protocol, then returns the
    mean and sample standard deviation of each run's tail ratio
    r_real^2 / r_succ.  Run i is ``protocol`` with seed ``seed + i``,
    running every stage, with no ``c_estimate`` and no ``output_dir``; every
    run config is validated before the first run starts.  The runs are
    spread over the CPUs this process may use (see ``mpstomo.parallel``);
    the result is that of running them one after another.
    """
    from .parallel import map_runs

    if n_runs < 1:
        raise ParameterError("need at least one virtual run")
    configs = [
        replace(
            protocol, target=trained, seed=seed + i, output_dir=None, blind=False,
            stop_on_threshold=False, c_estimate=None,
        )
        for i in range(n_runs)
    ]
    for c in configs:
        c.validate()
    runs = map_runs(_virtual_run, configs)
    histories = [history for history, _ in runs]
    values = [value for _, value in runs]
    mean = float(np.mean(values))
    std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return CalibrationResult(mean, std, values, histories, configs)
