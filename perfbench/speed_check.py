"""Check that the program's working set does not slow the speed samples.

Run from the root of a source checkout:

    python3 perfbench/speed_check.py

A timer signal interrupts three kinds of work every 25 ms: a vectorized loop
over a 64 MB array, the width-1 filter trajectory of the ``single-path``
workload, and sleeping.  Each interrupt runs the speed kernel five times in a
row.  For each kind of work the script prints the median over interrupts of
each run's time over the fifth run's.  ``speed.py`` keeps the run after
``WARMUP`` discarded ones; its ratio should be close to 1 for every kind of
work, whatever the first, cold run reads.
"""

from __future__ import annotations

import os
import signal
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUNS = 5
REPS = 8


def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]
    import numpy as np
    import wonhamlab as wl
    from speed import PERIOD_S, WARMUP, numpy_kernel_s
    from workloads import WORKLOADS

    # single-path writes nothing to its output directory.
    path = WORKLOADS["single-path"](wl, 11, BENCH_DIR.parent / ".bench_out")
    path.prepare()
    path.ops()
    big = np.linspace(0.1, 0.9, 8_000_000)

    def memory_heavy():
        nonlocal big
        for _ in range(12):
            e = np.exp(big * 1e-3)
            big = e * (big / e)
            big = big / big.sum() * big.size * 0.5

    runs: list[list[float]] = []

    def handler(signum, frame):
        runs.append([numpy_kernel_s() for _ in range(RUNS)])

    work = {"64 MB vectorized": memory_heavy, "width-1 trajectory": path.trajectory,
            "sleep": lambda: time.sleep(0.6)}
    ratios = {name: [] for name in work}
    previous = signal.signal(signal.SIGALRM, handler)
    try:
        for _ in range(REPS):
            for name, fn in work.items():
                runs.clear()
                signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
                fn()
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                ratios[name] += runs
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    print(f"kernel run time over run {RUNS}, median over interrupts; speed.py keeps run {WARMUP + 1}")
    for name, rr in ratios.items():
        cols = "  ".join(f"run {i + 1}: {statistics.median(r[i] / r[-1] for r in rr):.3f}"
                         for i in range(RUNS - 1))
        print(f"{name:20s} {len(rr):4d} interrupts  {cols}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
