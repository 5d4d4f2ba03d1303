"""The machine's current speed, read from a fixed reference kernel.

The shared 2-core host this benchmark was tuned on changes speed for
seconds to minutes at a time: the same pure-Python loop took 13 ms in one
process and 21 ms in the next, and the minimum moved with the median, so
taking the fastest pass does not help.  The slowdown hits interpreted code
and leaves compiled BLAS code almost untouched.

So each timed interval of interpreted work is bracketed by two readings of
a reference kernel, benchmark code that mimics an event loop (heap,
exponential draws, dict counts, a bounded deque), and is rescaled to the
speed at which the kernel takes ``NOMINAL_KERNEL_S``:

    normalised = wall * NOMINAL_KERNEL_S / mean(kernel before, kernel after)

The kernel never calls slicesim, so a change to the program moves the
normalised time exactly as it moves the wall time at a fixed machine speed.
The garbage collector is off while the kernel runs, so the size of the
program's heap does not leak into the reading.
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
from collections import deque
from time import perf_counter

# The kernel's median time on an undisturbed core of a 2.1 GHz Xeon
# (Python 3.11).  Only a scale factor: it makes normalised seconds read
# close to wall seconds on an idle machine of that kind.
NOMINAL_KERNEL_S = 0.0045
REPEATS = 5


def _kernel() -> int:
    rng = random.Random(5)
    heap: list = []
    counts: dict = {}
    window: deque = deque()
    now = 0.0
    for i in range(6000):
        now += rng.expovariate(2.0)
        heapq.heappush(heap, (now + rng.random(), i))
        if len(heap) > 50:
            _, j = heapq.heappop(heap)
            counts[j & 127] = counts.get(j & 127, 0) + 1
        window.append(i)
        if len(window) > 30:
            window.popleft()
    return len(counts)


def kernel_s() -> float:
    """Median time of the reference kernel over ``REPEATS`` runs, now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            start = perf_counter()
            _kernel()
            times.append(perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def normalise(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` rescaled to the nominal machine speed."""
    return wall_s * NOMINAL_KERNEL_S / ((before_s + after_s) / 2)
