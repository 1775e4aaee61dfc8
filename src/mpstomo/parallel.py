"""Independent runs spread over the CPUs this process may use.

Virtual calibration and scaling suites run tomographies that share
nothing.  ``map_runs`` sends them to ``min(len(args),
len(os.sched_getaffinity(0)))`` worker processes, and the calling process
only hands out runs and waits; with one CPU or one run, the calls run
serially in the caller.  A worker is a fresh interpreter running
``serve``: it imports numpy and mpstomo only, from the caller's package
directory, with the BLAS thread variables set to 1 in its own
environment, so every run gets one BLAS thread; it reads pickled calls
from its stdin and writes pickled results to its stdout.  The caller's one
thread hands each idle worker the next run and waits on the busy workers'
stdout pipes with ``select``, on a POSIX system (Linux, macOS); results come
back in argument order, as from a serial loop, whatever worker ran each run.

Workers are fresh interpreters rather than a ``multiprocessing`` pool: a
spawn pool re-executes the caller's main script in every worker, which
breaks a script without an ``if __name__ == "__main__"`` guard.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import subprocess
import sys
import traceback
from pathlib import Path

_BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# the directory mpstomo is imported from, put first on a worker's sys.path
_PACKAGE_PARENT = str(Path(__file__).resolve().parents[1])
_BOOT = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from mpstomo.parallel import serve; serve()"
)


class _WorkerTraceback(Exception):
    """The traceback of an exception raised in a worker, as its cause."""


class _Worker:
    """A fresh interpreter running ``serve``, sent one call at a time."""

    def __init__(self):
        env = dict(os.environ, **dict.fromkeys(_BLAS_THREAD_VARS, "1"))
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _BOOT, _PACKAGE_PARENT],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
        )

    def send(self, fn, arg):
        """Start ``fn(arg)`` in the worker."""
        try:
            pickle.dump((fn, arg), self.proc.stdin, pickle.HIGHEST_PROTOCOL)
            self.proc.stdin.flush()
        except OSError as exc:  # the worker has exited
            raise self._exited() from exc

    def receive(self):
        """The result of the call sent last; an exception it raised is raised here."""
        try:
            ok, value, tb = pickle.load(self.proc.stdout)
        except (OSError, EOFError, pickle.UnpicklingError) as exc:
            raise self._exited() from exc
        if not ok:
            raise value from _WorkerTraceback(tb)
        return value

    def _exited(self):
        return ChildProcessError(f"worker process exited with code {self.proc.wait()}")

    def close(self):
        """Close both pipes; the worker exits when it next reads or writes."""
        try:
            self.proc.stdin.close()
        except OSError:  # the worker is gone and the pipe was full
            pass
        self.proc.stdout.close()


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def map_runs(fn, args) -> list:
    """``[fn(a) for a in args]``, with the calls spread over the CPUs.

    With two or more CPUs and runs, every call runs in a worker, and the
    caller only hands out runs and waits.  ``fn`` must be importable in a
    worker, which has numpy and mpstomo only: a module-level function of
    mpstomo, say.  If calls raise, every call handed out finishes, no
    further one starts, and the exception of the first failed call in
    argument order is raised, as a serial loop would.  Workers are reaped
    on every path the caller survives, an interrupt included; a worker
    whose caller is killed outright finishes the run it holds and then
    exits.  With one CPU or one run, the calls run serially in the caller
    and no worker starts.
    """
    args = list(args)
    n_workers = min(len(args), _cpu_count())
    if n_workers < 2:
        return [fn(a) for a in args]
    results, errors = [None] * len(args), {}
    workers = []
    try:
        for _ in range(n_workers):
            workers.append(_Worker())
        idle, busy = list(workers), {}  # busy: a worker's stdout -> (worker, run)
        runs = iter(range(len(args)))
        while True:
            while idle and not errors and (i := next(runs, None)) is not None:
                worker = idle.pop()
                try:
                    worker.send(fn, args[i])
                    busy[worker.proc.stdout] = worker, i
                except Exception as exc:  # re-raised below, in run order
                    errors[i] = exc
            if not busy:
                break
            for out in select.select(busy, [], [])[0]:
                worker, i = busy.pop(out)
                try:
                    results[i] = worker.receive()
                except Exception as exc:
                    errors[i] = exc
                idle.append(worker)
    except BaseException:  # an interrupt included: kill, reap, re-raise
        for w in workers:
            w.proc.kill()
        raise
    finally:
        for w in workers:
            w.close()
            w.proc.wait()
    if errors:
        raise errors[min(errors)]
    return results


def serve() -> None:
    """Worker loop: read pickled ``(fn, arg)`` pairs from stdin until it
    closes, and write ``(ok, fn(arg) or its exception, traceback)`` for each,
    pickled, to stdout."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller reaps its workers
    inp, out = sys.stdin.buffer, sys.stdout.buffer
    sys.stdout = sys.stderr  # stdout carries replies only
    while True:
        try:
            fn, arg = pickle.load(inp)
        except EOFError:
            return
        try:
            reply = (True, fn(arg), None)
        except Exception as exc:  # sent to the caller, which raises it
            reply = (False, exc, traceback.format_exc())
        reply = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
        try:
            out.write(reply)
            out.flush()
        except BrokenPipeError:  # the caller is gone
            return
