"""A fixed loop that measures how fast the machine runs right now.

The machine this benchmark was built on is shared, and its speed drifts by
20 % and more over minutes, in every metric at once.  Each worker times
this loop next to the program and scales its times by REFERENCE_S over the
loop's median, giving seconds at the reference speed.  The loop mixes
Python bytecode with a numpy gather, as the workloads do, and never calls
ffkakeya.  Each timed sample follows an untimed gather over the same
arrays, so it starts with them in cache whatever the case before it
touched, and a change to the program's memory use cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.0031  # the loop's median time on the reference machine


class Calibration:
    reference_s = REFERENCE_S

    def __init__(self):
        rng = np.random.default_rng(0)
        self.table = rng.integers(0, 1 << 18, size=1 << 18).astype(np.int32)
        self.index = rng.integers(0, 1 << 18, size=1 << 17)

    def sample(self) -> float:
        int(self.table[self.index].sum())  # warm the arrays, untimed
        t0 = time.perf_counter()
        acc = 0
        for i in range(20_000):
            acc += i * i % 7
        int(self.table[self.index].sum())
        return time.perf_counter() - t0

    def scale(self, samples: int = 9) -> float:
        """REFERENCE_S over the median of fresh samples."""
        return self.reference_s / statistics.median(self.sample() for _ in range(samples))
