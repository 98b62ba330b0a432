"""Machine-speed calibration for timings taken on a shared, noisy machine.

The speed of a small shared box can change by 2x within seconds (other
tenants, frequency changes). A fixed pure-Python kernel that does not use
the package is timed right before and after every measured stretch; the
stretch's seconds are then scaled to a reference speed:

    scaled = raw * REFERENCE_SLICE_S / mean(slice before, slice after)

so a value reads as what it would have taken with the kernel running at
REFERENCE_KERNELS_PER_S. Both commits of a comparison are scaled to the
same reference; a change to the package cannot change the kernel's time.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

REFERENCE_KERNELS_PER_S = 175.0  # typical speed of the 2-core box the figures come from
SLICE_KERNELS = 6
REFERENCE_SLICE_S = SLICE_KERNELS / REFERENCE_KERNELS_PER_S


def kernel() -> int:
    """Rational arithmetic and dict inserts: the interpreter work the package does most."""
    total = Fraction(0)
    table = {}
    for i in range(1, 1500):
        total += Fraction(i % 7, i % 11 + 1)
        table[(i, i % 13)] = total
    return len(table)


def slice_seconds() -> float:
    """Seconds of one calibration slice: SLICE_KERNELS times the median kernel.

    The median and a paused garbage collector keep one interrupted kernel
    from moving the slice.
    """
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(SLICE_KERNELS):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return SLICE_KERNELS * statistics.median(times)


def scaled(raw_seconds: float, before: float, after: float) -> float:
    """``raw_seconds`` at the reference speed, given the slices around it."""
    return raw_seconds * REFERENCE_SLICE_S / (0.5 * (before + after))
