"""Small statistics helpers shared by the phases, and the step timer."""

from __future__ import annotations

import gc
import math
from functools import lru_cache
from time import perf_counter, process_time, thread_time
from typing import Callable, Iterable, List, Tuple, TypeVar

import numpy as np

T = TypeVar("T")

#: CPU seconds :func:`reference_kernel` takes at the nominal host speed.  It
#: is a fixed scale: the timings read as CPU seconds on a host where the
#: kernel takes this long.  The reference host took about twice as long in
#: its slow periods.
REFERENCE_S = 0.018


@lru_cache(maxsize=None)
def _reference_arrays() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(0)
    a, b = rng.random((2, 512, 1400))
    return a, b, np.empty_like(a)


def reference_kernel() -> None:
    """A fixed job that never changes: pure-Python dict and tuple traffic,
    then two numpy passes over 5.7 MB arrays, like the sweep and the bulk
    tape passes."""
    counts: dict = {}
    for i in range(30000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i
    a, b, out = _reference_arrays()
    np.logaddexp(a, b, out=out)
    np.multiply(out, b, out=out)


class Timer:
    """Times steps in CPU seconds at the nominal host speed, and in wall seconds.

    The host is a virtual machine on a shared server, and two things move
    its timings.  The hypervisor gives the CPUs to other tenants; the kernel
    accounts that as steal, not as the process's CPU time, so the timer
    reads CPU seconds.  And for minutes at a time the same code runs up to
    1.8 times slower in CPU seconds too (other tenants on the same cores):
    ten-run spreads of ``sweep_s`` reached a third of the median.  So the
    timer runs :func:`reference_kernel` before and after every step and
    scales the step's CPU time by the mean of the two, over
    :data:`REFERENCE_S`.  Over 40-second windows of a ten-minute run, this
    cut the spread of the bulk calls from 0.06-0.09 to 0.01-0.07, of sweep
    networks from 0.09 to 0.03 and of artifact loads from 0.17 to 0.04.

    The kernel belongs to the benchmark, so no change to the program moves
    it.  The steps timed run on the caller's thread and do not wait on I/O,
    so their CPU time is their busy time.  Wall seconds are kept beside them
    as per-layer ``wall.*`` metrics, where a change that adds waiting shows.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        reference_kernel()  # the first call runs slower, on cold caches
        self._sample()

    def _sample(self) -> float:
        enabled = gc.isenabled()
        gc.disable()  # a collection would time the heap, not the host
        try:
            start = thread_time()
            reference_kernel()
            self.samples.append(thread_time() - start)
        finally:
            if enabled:
                gc.enable()
        return self.samples[-1]

    def time(self, step: Callable[[], T]) -> Tuple[T, float, float]:
        """Run ``step()``; return its result, nominal CPU seconds and wall seconds."""
        before = self.samples[-1]
        cpu, wall = process_time(), perf_counter()
        result = step()
        cpu, wall = process_time() - cpu, perf_counter() - wall
        after = self._sample()
        return result, cpu * 2 * REFERENCE_S / (before + after), wall

    def slowdown(self) -> float:
        """Median reference time over the nominal one (1.0: nominal speed)."""
        return median(self.samples) / REFERENCE_S


def quantile(values, q: float) -> float:
    values = np.asarray(values, dtype=float)
    return float(np.quantile(values, q)) if values.size else float("nan")


def median(values) -> float:
    return quantile(values, 0.5)


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))
