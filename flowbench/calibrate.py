"""Host-speed calibration kernel.

The benchmark host is a shared virtual machine whose speed drifts by up
to 1.5x over minutes.  Timing this fixed pure-Python kernel next to each
measurement and scaling by ``REFERENCE_S / kernel time`` turns a wall
time into seconds on a host where the kernel takes ``REFERENCE_S``.
This module imports nothing but ``time`` so that a fresh interpreter can
use it before timing ``import repro.cli``.
"""

import time

#: Kernel time on an idle 2-vCPU x86-64 virtual machine, Python 3.11.
REFERENCE_S = 0.0015
ITERATIONS = 20000


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel."""
    start = time.perf_counter()
    table = {}
    x = 0.5
    for i in range(ITERATIONS):
        x = x * 1.0000001 + 1e-9
        table[i & 255] = x
    return time.perf_counter() - start


def factor(before: float, after: float) -> float:
    """Scale for a wall time measured between two kernel timings."""
    return 2.0 * REFERENCE_S / (before + after)
