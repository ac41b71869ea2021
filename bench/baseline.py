"""Reference figures for bench/README.md: machine, library versions, the
ROADMAP baseline (stick-breaking ms per sample, RngStream us per open) and
each workload's round time on one thread and on two.

    python3 bench/baseline.py

Takes about two minutes; writes nothing but its report on stdout.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time
from pathlib import Path

import run
import workloads as wl

ROUNDS = 3
STICK_SAMPLES = {10.0: 400, 100.0: 200, 1000.0: 60, 10000.0: 20}
STREAM_OPENS = 20000


def per_call(fn, n: int) -> float:
    start = time.perf_counter()
    for i in range(n):
        fn(i)
    return (time.perf_counter() - start) / n


def main() -> None:
    sys.path.insert(0, str(run.SRC))
    import numpy as np
    import scipy

    from dplab import RngStream, TruncationPolicy, stick_breaking_sample, uniform_base

    print(f"nproc {os.cpu_count()}, {platform.machine()}, Python {platform.python_version()}, "
          f"numpy {np.__version__}, scipy {scipy.__version__}")
    print(f"RngStream open: {per_call(lambda i: RngStream(1, i), STREAM_OPENS) * 1e6:.1f} us")
    base, trunc = uniform_base(), TruncationPolicy(1e-10)
    for a, n in STICK_SAMPLES.items():
        ms = per_call(lambda i: stick_breaking_sample(a, base, trunc, RngStream(1, i)), n) * 1e3
        print(f"stick_breaking_sample a={a:g}: {ms:.2f} ms per sample")

    for workload in wl.WORKLOADS:
        ops = wl.build_ops(workload, 1)
        out_dir = run.OUT / "baseline" / workload
        for threads in ("1", run.THREADS):
            os.environ["DPLAB_THREADS"] = threads
            run.run_round(ops, out_dir)  # warm-up
            rounds = [run.run_round(ops, out_dir) for _ in range(ROUNDS)]
            print(
                f"{workload} DPLAB_THREADS={threads}: run_s "
                f"{statistics.median(r.wall_s for r in rounds):.3f}, cpu_s "
                f"{statistics.median(r.cpu_s for r in rounds):.3f} (median of {ROUNDS} rounds)"
            )


if __name__ == "__main__":
    main()
