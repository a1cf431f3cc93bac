"""How fast the shared machine runs right now, from a fixed CPU kernel.

On a virtual machine whose host is shared, the same job's CPU time swings by
20-60% within seconds to minutes as neighbours load the physical cores
(measured on the 2-vCPU machine the baseline comes from). The kernel below
does not touch handemg: a Python loop of small numpy calls, small matrix
products and sorts of 0.8 MB, which is the mix the workloads run. Its CPU
time, taken right after the jobs it calibrates, tracks those swings, and

    job time in reference seconds = job CPU time * REFERENCE_S / kernel CPU time

cancels most of them. REFERENCE_S is the median CPU time of the kernel on that
machine, so reference seconds read like seconds there.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.020


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._vec = np.arange(64.0)
        self._mat = rng.random((96, 96))
        self._sorted = rng.random(100_000)

    def kernel_seconds(self) -> float:
        """CPU seconds the fixed kernel takes now."""
        t0 = time.process_time()
        total = 0.0
        for i in range(1500):
            total += float(self._vec @ self._vec) + 0.5 * i
        for _ in range(10):
            self._mat @ self._mat
        for _ in range(20):
            np.sort(self._sorted)
        return time.process_time() - t0
