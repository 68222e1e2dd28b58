"""Machine-speed calibration for the timings.

On a shared host the same pass can take twice as long from one minute to
the next, because other tenants slow the core down; CPU time grows with
wall time, so it is the core that is slower, not the process that waits.
A fixed kernel, independent of phaseid, is timed right before every
query. Every time the benchmark reports is the measured wall time
multiplied by REFERENCE_S / (median kernel time of its pass), that is,
the wall time at the speed at which the kernel takes REFERENCE_S.
The raw wall times are kept in the run record.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel time on the reference host (Intel Xeon, 2 vCPUs, Python 3.11,
# numpy 2.4) when nothing else slows it down. Only ratios against it matter.
REFERENCE_S = 1.6e-3


def kernel_time() -> float:
    """Seconds taken by a fixed mix of interpreter and small-numpy work."""
    start = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i
    vec = np.arange(16.0)
    for _ in range(300):
        vec = np.sqrt(vec + 1.0)
    return time.perf_counter() - start


def speed_factor(kernel_times: list[float]) -> float:
    """Multiplier that turns wall time measured alongside these kernels into reference time."""
    return REFERENCE_S / statistics.median(kernel_times)
