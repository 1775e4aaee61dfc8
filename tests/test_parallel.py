"""Runs spread over the CPUs give the bytes of a serial loop, raise its
errors, and leave no worker process behind."""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import mpstomo
from mpstomo import ExperimentConfig, ParameterError, TargetSpec, TrainConfig, w_state
from mpstomo import parallel, runner
from mpstomo.runner import replicas_to_threshold, run_scaling_suite, run_tomography

ROOT = Path(__file__).resolve().parents[1]
PACKAGE_PARENT = str(Path(mpstomo.__file__).resolve().parents[1])
multi_cpu = pytest.mark.skipif(
    parallel._cpu_count() < 2, reason="needs two CPUs to start a worker"
)

VIRTUAL_CFG = """\
batch_initial = 20
max_replicas = 300
stop_on_threshold = false
train.d_cap = 4
train.sweeps_per_stage = 4
train.eta_noise = 1.0
"""


def _small(**kw):
    base = dict(
        target=TargetSpec("W", 4, theta=0.1),
        fidelity_threshold=0.9,
        batch_initial=20,
        max_replicas=200,
        seed=3,
        train=TrainConfig(d_cap=4, sweeps_per_stage=4),
    )
    base.update(kw)
    return ExperimentConfig(**base)


def _virtual_cli(tmp_path, out_name, one_cpu):
    pin = "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); " if one_cpu else ""
    code = (
        f"import os, sys; {pin}from mpstomo.cli import main; "
        "sys.exit(main(['virtual', '--model', sys.argv[1], '--config', sys.argv[2], "
        "'--runs', '3', '--seed', '5', '--out', sys.argv[3]]))"
    )
    out = tmp_path / out_name
    done = subprocess.run(
        [sys.executable, "-c", code, *map(str, (tmp_path / "w4.mps", tmp_path / "v.cfg", out))],
        env=dict(os.environ, PYTHONPATH=PACKAGE_PARENT),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    names = ["calibration.txt", *(f"virtual_{i:02d}/history.csv" for i in range(3))]
    return {name: (out / name).read_bytes() for name in names}


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="cannot pin a CPU here")
def test_virtual_one_cpu_and_unpinned_write_the_same_bytes(tmp_path):
    w_state(4, 0.1).save(tmp_path / "w4.mps")
    (tmp_path / "v.cfg").write_text(VIRTUAL_CFG)
    serial = _virtual_cli(tmp_path, "serial", one_cpu=True)
    assert _virtual_cli(tmp_path, "spread", one_cpu=False) == serial


def test_suite_rows_equal_serial_runs():
    cfg = _small()
    grid, n_seeds = [3, 4], 2
    result = run_scaling_suite("size", grid, cfg, n_seeds=n_seeds)
    for gi, (value, row) in enumerate(zip(grid, result.rows)):
        reached = []
        for s in range(n_seeds):
            run_cfg = runner._suite_config(cfg, "size", value, cfg.seed + 997 * gi + s)
            v = replicas_to_threshold(run_tomography(run_cfg)[0], run_cfg.fidelity_threshold)
            if v is not None:
                reached.append(v)
        assert row.n_converged == len(reached)
        assert row.n_failed == n_seeds - len(reached)
        if reached:
            assert row.mean_replicas == sum(reached) / len(reached)


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_first_failing_run_in_order_raises(started, monkeypatch, n_cpus):
    # every run fails fast or runs small; serially on one CPU, and whichever
    # worker runs which on two, the error is that of run 1, as in a serial loop
    monkeypatch.setattr(parallel, "_cpu_count", lambda: n_cpus)
    configs = [_small(), _small(max_replicas=0), _small(fidelity_threshold=1.5)]
    with pytest.raises(ParameterError, match="no stages"):
        parallel.map_runs(runner._suite_run, configs)
    assert len(started) == (0 if n_cpus == 1 else n_cpus)
    assert all(w.proc.returncode is not None for w in started)


@multi_cpu
def test_worker_error_keeps_its_class():
    worker = parallel._Worker()
    try:
        with pytest.raises(ParameterError, match="no stages") as info:
            worker.send(runner._suite_run, _small(max_replicas=0))
            worker.receive()
        assert "run_tomography" in str(info.value.__cause__)
        worker.send(runner._suite_run, _small())
        assert worker.receive() is not None
    finally:
        worker.close()
        assert worker.proc.wait(timeout=60) == 0


@pytest.fixture
def started(monkeypatch):
    """The workers map_runs starts."""
    workers = []
    worker_class = parallel._Worker

    def start():
        workers.append(worker_class())
        return workers[-1]

    monkeypatch.setattr(parallel, "_Worker", start)
    return workers


@multi_cpu
def test_workers_are_reaped_after_success(started):
    parallel.map_runs(runner._suite_run, [_small(), _small(seed=4)])
    assert started and all(w.proc.returncode is not None for w in started)


@multi_cpu
def test_worker_that_dies_mid_run_raises(started):
    t0 = time.monotonic()
    with pytest.raises(ChildProcessError, match="^worker process exited with code 3$"):
        parallel.map_runs(os._exit, [3, 3, 0])
    assert time.monotonic() - t0 < 10
    assert started and all(w.proc.returncode is not None for w in started)


UNIMPORTABLE_FN_SCRIPT = """\
import json
from mpstomo import parallel

started, start = [], parallel._Worker
parallel._Worker = lambda: started.append(start()) or started[-1]


def double(x):
    return x + x


try:
    # the first call outgrows a pipe's buffer: its worker must read on past
    # the function it cannot load for the send to complete
    parallel.map_runs(double, ["x" * 1_000_000, "y", "z"])
except Exception as exc:
    print(json.dumps({
        "class": type(exc).__name__, "message": str(exc), "cause": str(exc.__cause__),
        "started": len(started), "reaped": all(w.proc.returncode is not None for w in started),
    }))
"""


@multi_cpu
def test_function_workers_cannot_import_raises_their_error(tmp_path):
    # double lives in the script's __main__, which a worker never imports
    script = tmp_path / "double.py"
    script.write_text(UNIMPORTABLE_FN_SCRIPT)
    done = subprocess.run(
        [sys.executable, str(script)], env=dict(os.environ, PYTHONPATH=PACKAGE_PARENT),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    raised = json.loads(done.stdout)
    assert raised["class"] == "AttributeError"
    assert "Can't get attribute 'double'" in raised["message"]
    assert "Traceback" in raised["cause"] and "pickle.load" in raised["cause"]
    assert raised["started"] == 2 and raised["reaped"]


def test_worker_that_exited_before_its_first_run_raises(started, monkeypatch):
    # a send to a worker that is gone fails its run as a death mid-run does
    monkeypatch.setattr(parallel, "_cpu_count", lambda: 2)
    start = parallel._Worker

    def start_and_kill():
        worker = start()
        worker.proc.kill()
        worker.proc.wait()
        return worker

    monkeypatch.setattr(parallel, "_Worker", start_and_kill)
    t0 = time.monotonic()
    with pytest.raises(ChildProcessError, match="^worker process exited with code -9$"):
        parallel.map_runs(str, [1, 2, 3])
    assert time.monotonic() - t0 < 10
    assert started and all(w.proc.returncode is not None for w in started)


@multi_cpu
def test_workers_are_reaped_after_an_interrupt(started):
    # the caller only waits while the workers run; an interrupt that reaches
    # it there kills and reaps them at once, long before their runs end
    main = threading.main_thread().ident
    timer = threading.Timer(0.5, signal.pthread_kill, (main, signal.SIGINT))
    t0 = time.monotonic()
    timer.start()
    try:
        with pytest.raises(KeyboardInterrupt):
            parallel.map_runs(time.sleep, [5, 5, 5])
    finally:
        timer.cancel()
    assert time.monotonic() - t0 < 4
    assert started and all(w.proc.returncode is not None for w in started)


def test_more_workers_than_cores_lose_no_run(started, monkeypatch):
    n_procs = 4  # more processes than the 2 CPUs of a small machine
    monkeypatch.setattr(parallel, "_cpu_count", lambda: n_procs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert parallel.map_runs(str, range(300)) == [str(i) for i in range(300)]
    finally:
        sys.setswitchinterval(interval)
    assert len(started) == n_procs
    assert all(w.proc.returncode is not None for w in started)


@multi_cpu
def test_every_run_gets_one_blas_thread(monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert parallel.map_runs(os.getenv, ["OPENBLAS_NUM_THREADS"] * 2) == ["1", "1"]


def test_readme_library_example_runs_as_an_unguarded_script(tmp_path):
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Library example"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "__main__" not in code
    script = tmp_path / "example.py"
    script.write_text(code)
    done = subprocess.run(
        [sys.executable, str(script)], env=dict(os.environ, PYTHONPATH=PACKAGE_PARENT),
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
