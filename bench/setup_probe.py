"""Time one workload's set-up in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR WORKLOAD SEED WORKDIR

Prints the seconds spent importing mpstomo, parsing the config and
building the target, measured from before the first mpstomo import.
"""

import sys
from time import perf_counter

start = perf_counter()
src, name, seed, workdir = sys.argv[1:5]
sys.path.insert(0, src)
import workloads  # noqa: E402  (imports mpstomo and numpy)

prepare, _ = workloads.WORKLOADS[name]
prepare(int(seed), workdir)
print(repr(perf_counter() - start))
