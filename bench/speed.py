"""Machine-speed reference for normalizing host times.

On a shared machine the same iteration can take 1.3 s or 2.7 s a few
seconds apart, with CPU time tracking wall time: the slowdown comes from
the machine, not from scheduling or from the program. A fixed piece of
work that does not touch tinydeploy, mixing small-array numpy calls with
interpreter-bound loops as the program does, is timed just before and
just after each timed interval. The interval divided by the mean of the
two slowdowns reads as seconds at the speed where one reference call
takes `NOMINAL_CALL_S`. Only reference calls adjacent to the interval
track the machine: over 10 s windows of one 5-minute series, the median
of raw iteration times spread by 25-32% (quartile distance over median),
the median of iterations normalized this way by 2-4%.

The program slows less than the reference loop does. Over ten runs of
each workload, the slope of log(raw iteration time) against log(reference
slowdown) was 0.74 for pipeline_dwsep_net, 0.92 for compile_branchy and
0.93 for pipeline_small_convnet, so the reference's slowdown enters raised
to `SENSITIVITY`.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# About the median time of one reference call on the 2-core machine that
# recorded baseline.json; it sets the scale only and cancels out of any
# comparison.
NOMINAL_CALL_S = 0.021
BLOCK_CALLS = 4
SENSITIVITY = 0.8


class Reference:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.x = rng.normal(size=(1, 16, 16, 16)).astype(np.float32)
        self.w = rng.normal(size=(16, 3 * 3 * 16)).astype(np.float32)
        self.q = rng.integers(-128, 128, size=(64, 144)).astype(np.int64)
        self.rows = np.arange(16)[:, None] + np.arange(3)[None, :]
        self._work()  # first calls pay one-time costs

    def _work(self) -> float:
        total = 0.0
        for _ in range(24):
            xp = np.pad(self.x, ((0, 0), (1, 1), (1, 1), (0, 0)))
            patches = xp[:, self.rows[:, None, :, None], self.rows[None, :, None, :], :]
            out = np.einsum("xk,ok->xo", patches.reshape(-1, 144), self.w, optimize=False)
            total += float(out.max()) + float((self.q @ self.q.T).sum())
            counts: dict[int, int] = {}
            for i in range(3000):
                counts[i % 89] = counts.get(i % 89, 0) + i
            total += len(counts)
        return total

    def slowdown(self, calls: int = BLOCK_CALLS) -> float:
        """The program's expected slowdown against nominal speed, from the
        median time of `calls` reference calls."""
        times = []
        for _ in range(calls):
            start = time.perf_counter()
            self._work()
            times.append(time.perf_counter() - start)
        return (statistics.median(times) / NOMINAL_CALL_S) ** SENSITIVITY
