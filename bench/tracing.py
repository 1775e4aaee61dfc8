"""Outside-in span recorder and the per-layer metrics derived from it.

The traced run wraps the entry points of each mpstomo module from here,
without touching the package source.  A name is patched everywhere it is
looked up: ``from x import y`` copies the binding into the importing
module, so patching only the defining module would miss those calls.
Methods are patched on their class.

Each span is ``(name, start, end, parent, run)``; spans stay in memory,
column by column so that the garbage collector has no per-span object to
scan, and are written once, when the benchmark exits.  A span's self time is its
duration minus the durations of its direct children (calls nest, so
children never overlap).  Counters are read from outside at the same
boundaries: arguments, return values and public attributes of the objects
involved.
"""

from __future__ import annotations

import gzip
import os
import statistics
from collections import defaultdict
from functools import wraps
from pathlib import Path
from time import perf_counter

import mpstomo.cli
import mpstomo.estimation
import mpstomo.measurement
import mpstomo.mps
import mpstomo.rotations
import mpstomo.runner
import mpstomo.training

_M = mpstomo.measurement
_T = mpstomo.training

# span name -> every (owner, attribute) through which the code reaches it
PATCHES = {
    "measurement.measure_batch": [(mpstomo.runner, "measure_batch"), (_M, "measure_batch")],
    "measurement.sample_outcomes": [(_M, "_sample_outcome_indices")],
    "measurement.to_file": [(_M.Dataset, "to_file")],
    "measurement.from_file": [(_M.Dataset, "from_file")],
    "rotations.rotation_matrices": [
        (mpstomo.rotations, "rotation_matrices"),
        (_M, "rotation_matrices"),
        (_T, "rotation_matrices"),
        (mpstomo.mps, "rotation_matrices"),
    ],
    "training.train_stage": [(mpstomo.runner, "train_stage"), (_T, "train_stage")],
    "training.optimize_bond": [(_T, "_optimize_bond")],
    "training.amplitudes": [(_T.BondObjective, "amplitudes")],
    "training.loss": [(_T.BondObjective, "loss")],
    "training.gradient": [(_T.BondObjective, "gradient")],
    "training.bond_env": [(_T.BondObjective, "_init_from_parts")],
    "training.site_rows": [(_T, "_site_rows")],
    "training.contract_left": [(_T, "_contract_left")],
    "training.contract_right": [(_T, "_contract_right")],
    "mps.split_two_site": [(_T, "split_two_site"), (mpstomo.mps, "split_two_site")],
    "mps.fidelity_distance": [(mpstomo.mps.MatrixProductState, "fidelity_distance")],
    "mps.save": [(mpstomo.mps.MatrixProductState, "save")],
    "mps.load": [
        (mpstomo.mps, "load_mps"),
        (mpstomo.runner, "load_mps"),
        (mpstomo.cli, "load_mps"),
    ],
    "estimation.fit_power_law": [
        (mpstomo.estimation, "fit_power_law"),
        (mpstomo.runner, "fit_power_law"),
        (mpstomo.cli, "fit_power_law"),
    ],
    "estimation.run_virtual": [(mpstomo.estimation, "run_virtual"), (mpstomo.cli, "run_virtual")],
    "runner.run_tomography": [(mpstomo.runner, "run_tomography"), (mpstomo.cli, "run_tomography")],
    "runner.write_run_dir": [(mpstomo.runner, "write_run_dir"), (mpstomo.cli, "write_run_dir")],
}

# metric name -> unit, in report order; every traced run reports all of them
# (0 where the workload never reaches the layer)
LAYER_UNITS = {
    "measurement.measure_batch.calls": "count",
    "measurement.measure_batch.self_s": "s",
    "measurement.sample_outcomes.s_per_1e4_shots": "s",
    "measurement.shots_per_s": "1/s",
    "measurement.to_file.s": "s",
    "measurement.to_file.mb_per_s": "MB/s",
    "measurement.from_file.s": "s",
    "measurement.from_file.mb_per_s": "MB/s",
    "rotations.rotation_matrices.calls": "count",
    "rotations.rotation_matrices.self_s": "s",
    **{
        f"training.{k}.{m}": u
        for k in ("amplitudes", "loss", "gradient")
        for m, u in (("calls", "count"), ("self_s", "s"), ("p50_us", "us"), ("p99_us", "us"))
    },
    "training.amplitudes.gflops_computed": "GFLOP/s",
    "training.amplitudes.flop_per_byte_computed": "flop/B",
    "training.gradient.gflops_computed": "GFLOP/s",
    "training.gradient.flop_per_byte_computed": "flop/B",
    "training.contract_left.calls": "count",
    "training.contract_left.self_s": "s",
    "training.contract_right.calls": "count",
    "training.contract_right.self_s": "s",
    "training.bond_env.self_s": "s",
    "training.site_rows.self_s": "s",
    "training.train_stage.calls": "count",
    "training.train_stage.self_s": "s",
    "training.sweeps": "count",
    "training.stages_at_sweep_cap": "count",
    "training.grad_steps_per_bond": "count",
    "training.step_accept_ratio": "ratio",
    "training.clamped_shot_frac": "ratio",
    "mps.split_two_site.calls": "count",
    "mps.split_two_site.self_s": "s",
    "mps.split_two_site.p50_us": "us",
    "mps.discarded_weight_max": "ratio",
    "mps.bond_dim_max": "count",
    "mps.fidelity_distance.calls": "count",
    "mps.fidelity_distance.self_s": "s",
    "mps.save.s": "s",
    "mps.load.s": "s",
    "estimation.fit_power_law.calls": "count",
    "estimation.fit_power_law.self_s": "s",
    "estimation.run_virtual.s": "s",
    "estimation.virtual_runs": "count",
    "estimation.run_virtual.parallel_efficiency": "ratio",
    "estimation.c_mean": "1",
    "estimation.c_std": "1",
    "estimation.f_est_err": "1",
    "runner.stages": "count",
    "runner.stage_s_p50": "s",
    "runner.write_run_dir.s": "s",
    "runner.write_run_dir.bytes": "B",
    "runner.shots_to_threshold": "count",
    "runner.f_true_final": "1",
    "bench.tracing_overhead_frac": "ratio",
    "bench.cpu_s": "s",
}


def _amplitudes_cost(count, d1, q, d2):
    """Computed flops and bytes of one amplitude pass: the (|V|, d1 q) x
    (d1 q, q d2) complex matmul, then a row-wise complex dot product."""
    a, b = d1 * q, q * d2
    flops = 8 * count * b * (a + 1)
    nbytes = 16 * (count * a + a * b + 3 * count * b + count)
    return flops, nbytes


def _gradient_cost(count, d1, q, d2, penalized):
    """Computed flops and bytes of one gradient pass given the amplitudes:
    per-shot weights, the weighted (d1 q, |V|) x (|V|, q d2) matmul and,
    with a penalty, the two purity matmuls of the merged tensor."""
    a, b = d1 * q, q * d2
    flops = 8 * count * a * b + 6 * count * a + 14 * count
    nbytes = 16 * (3 * count + 3 * count * a + count * b + a * b) + 9 * count
    if penalized:
        flops += 16 * a * a * b
        nbytes += 16 * (2 * a * b + a * a)
    return flops, nbytes


def _dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


class Tracer:
    """Span recorder plus the counters read at the same boundaries."""

    def __init__(self):
        self._names, self._starts, self._ends, self._parents, self._runs = [], [], [], [], []
        self._stack = []
        self.run = -1
        self.counts = defaultdict(lambda: defaultdict(float))
        self._shapes = defaultdict(lambda: defaultdict(int))
        self._saved = []

    # -- recording ---------------------------------------------------------

    @property
    def spans(self):
        return list(zip(self._names, self._starts, self._ends, self._parents, self._runs))

    def _wrap(self, name, fn, hook):
        names, starts, ends, parents, runs = (
            self._names, self._starts, self._ends, self._parents, self._runs)
        stack = self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self.counts[self.run], args, result)
            return result

        return traced

    def install(self, run):
        """Patch every entry point; spans and counters go to ``run``."""
        self.run = run
        hooks = self._hooks()
        for name, sites in PATCHES.items():
            for owner, attr in sites:
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, hooks.get(name)))
                else:
                    wrapped = self._wrap(name, raw, hooks.get(name))
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- counters read from outside ---------------------------------------

    def _hooks(self):
        # call shapes are tallied here and costed once, in layer_metrics
        shapes = self._shapes[self.run]
        current = [None, 0.0]  # the objective being optimized, its best loss

        def amplitudes(c, args, result):
            obj = args[0]
            shapes["amplitudes", obj.count, obj.shape, False] += 1

        def gradient(c, args, result):
            obj = args[0]
            shapes["gradient", obj.count, obj.shape, obj.penalty_weight != 0.0] += 1
            c["clamped"] += obj.clamped_last
            c["gradient.shots"] += obj.count

        def loss(c, args, result):
            # _optimize_bond evaluates the start point of one objective, then
            # one trial per step, and accepts a trial that is <= the best loss
            # so far; one bond is optimized at a time
            if args[0] is not current[0]:
                current[:] = [args[0], result]
            elif result <= current[1]:
                current[1] = result
                c["accepted"] += 1
            else:
                c["rejected"] += 1

        def split(c, args, result):
            left, _, discarded = result
            c["discarded_max"] = max(c["discarded_max"], discarded)
            c["bond_dim_max"] = max(c["bond_dim_max"], left.shape[2])

        def train_stage(c, args, result):
            sweeps = len(result[1]) - 1
            c["sweeps"] += sweeps
            c["at_cap"] += sweeps >= args[2].sweeps_per_stage

        def sample(c, args, result):
            c["sampled_shots"] += args[2]

        def measure(c, args, result):
            c["measured_shots"] += args[1]

        def to_file(c, args, result):
            c["to_file.bytes"] += os.path.getsize(args[1])

        def from_file(c, args, result):
            c["from_file.bytes"] += os.path.getsize(args[1])

        def run_virtual(c, args, result):
            c["c_mean"], c["c_std"] = result.mean, result.std

        def write_run_dir(c, args, result):
            c["run_dir.bytes"] += _dir_bytes(args[0])

        return {
            "training.amplitudes": amplitudes,
            "training.gradient": gradient,
            "training.loss": loss,
            "mps.split_two_site": split,
            "training.train_stage": train_stage,
            "measurement.sample_outcomes": sample,
            "measurement.measure_batch": measure,
            "measurement.to_file": to_file,
            "measurement.from_file": from_file,
            "estimation.run_virtual": run_virtual,
            "runner.write_run_dir": write_run_dir,
        }

    # -- derived metrics ----------------------------------------------------

    def layer_metrics(self, run) -> dict[str, float]:
        """Per-layer metrics of one traced run, every name of LAYER_UNITS
        except the quality and overhead figures the caller adds."""
        spans = self.spans
        mine = [i for i, s in enumerate(spans) if s[4] == run]
        child_time = defaultdict(float)
        children = defaultdict(list)
        for i in mine:
            parent = spans[i][3]
            if parent >= 0:
                child_time[parent] += spans[i][2] - spans[i][1]
                children[parent].append(i)
        durs = defaultdict(list)
        selfs = defaultdict(list)
        for i in mine:
            name, start, end = spans[i][:3]
            durs[name].append(end - start)
            selfs[name].append(end - start - child_time[i])
        c = self.counts[run]
        cost = defaultdict(float)
        for (kind, count, (d1, q, _, d2), penalized), n in self._shapes[run].items():
            f, b = (_amplitudes_cost(count, d1, q, d2) if kind == "amplitudes"
                    else _gradient_cost(count, d1, q, d2, penalized))
            cost[f"{kind}.flops"] += n * f
            cost[f"{kind}.bytes"] += n * b
        out = {}

        def calls(name):
            return len(durs[name])

        def self_s(name):
            return float(sum(selfs[name]))

        def total_s(name):
            return float(sum(durs[name]))

        def pct_us(name, p):
            # a percentile needs at least ten samples beyond it
            xs = sorted(selfs[name])
            if not xs or len(xs) * (1 - p) < 10:
                return 0.0
            return 1e6 * xs[min(len(xs) - 1, int(p * len(xs)))]

        def ratio(a, b):
            return float(a) / b if b else 0.0

        for name in ("measurement.measure_batch", "rotations.rotation_matrices",
                     "training.contract_left", "training.contract_right",
                     "training.train_stage", "mps.fidelity_distance",
                     "estimation.fit_power_law", "mps.split_two_site"):
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.self_s"] = self_s(name)
        out["measurement.sample_outcomes.s_per_1e4_shots"] = ratio(
            1e4 * self_s("measurement.sample_outcomes"), c["sampled_shots"])
        out["measurement.shots_per_s"] = ratio(
            c["measured_shots"], total_s("measurement.measure_batch"))
        for io in ("to_file", "from_file"):
            seconds = total_s(f"measurement.{io}")
            out[f"measurement.{io}.s"] = seconds
            out[f"measurement.{io}.mb_per_s"] = ratio(c[f"{io}.bytes"] / 1e6, seconds)
        for k in ("amplitudes", "loss", "gradient"):
            name = f"training.{k}"
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.self_s"] = self_s(name)
            out[f"{name}.p50_us"] = pct_us(name, 0.5)
            out[f"{name}.p99_us"] = pct_us(name, 0.99)
        for k in ("amplitudes", "gradient"):
            out[f"training.{k}.gflops_computed"] = ratio(
                cost[f"{k}.flops"] / 1e9, self_s(f"training.{k}"))
            out[f"training.{k}.flop_per_byte_computed"] = ratio(
                cost[f"{k}.flops"], cost[f"{k}.bytes"])
        out["training.bond_env.self_s"] = self_s("training.bond_env")
        out["training.site_rows.self_s"] = self_s("training.site_rows")
        out["training.sweeps"] = int(c["sweeps"])
        out["training.stages_at_sweep_cap"] = int(c["at_cap"])
        out["training.grad_steps_per_bond"] = ratio(
            calls("training.gradient"), calls("training.optimize_bond"))
        out["training.step_accept_ratio"] = ratio(
            c["accepted"], c["accepted"] + c["rejected"])
        out["training.clamped_shot_frac"] = ratio(c["clamped"], c["gradient.shots"])
        out["mps.split_two_site.p50_us"] = pct_us("mps.split_two_site", 0.5)
        out["mps.discarded_weight_max"] = float(c["discarded_max"])
        out["mps.bond_dim_max"] = int(c["bond_dim_max"])
        out["mps.save.s"] = total_s("mps.save")
        out["mps.load.s"] = total_s("mps.load")

        virtual = [i for i in mine if spans[i][0] == "estimation.run_virtual"]
        v_wall = sum(spans[i][2] - spans[i][1] for i in virtual)
        v_child = [j for i in virtual for j in children[i]
                   if spans[j][0] == "runner.run_tomography"]
        out["estimation.run_virtual.s"] = v_wall
        out["estimation.virtual_runs"] = len(v_child)
        out["estimation.run_virtual.parallel_efficiency"] = ratio(
            sum(spans[j][2] - spans[j][1] for j in v_child), v_wall)
        out["estimation.c_mean"] = float(c["c_mean"])
        out["estimation.c_std"] = float(c["c_std"])

        stage_s = []
        for i in mine:
            if spans[i][0] != "runner.run_tomography":
                continue
            kids = children[i]
            starts = [spans[j][1] for j in kids if spans[j][0] == "measurement.measure_batch"]
            ends = [spans[j][1] for j in kids if spans[j][0] == "runner.write_run_dir"]
            bounds = starts + [ends[0] if ends else spans[i][2]]
            stage_s += [b - a for a, b in zip(bounds, bounds[1:])]
        out["runner.stages"] = len(stage_s)
        out["runner.stage_s_p50"] = statistics.median(stage_s) if stage_s else 0.0
        out["runner.write_run_dir.s"] = total_s("runner.write_run_dir")
        out["runner.write_run_dir.bytes"] = int(c["run_dir.bytes"])
        return out

    def write(self, path) -> None:
        """Every span as a tab-separated line: name, start, end, parent, run."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("name\tstart\tend\tparent\trun\n")
            for name, start, end, parent, run in self.spans:
                f.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{run}\n")
