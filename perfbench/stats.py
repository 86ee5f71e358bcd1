"""Summary statistics and the host stamp."""

from __future__ import annotations

import heapq
import math
import os
import platform
import statistics
import time

#: A reported percentile needs at least this many samples beyond it.
TAIL_SAMPLES = 10


def min_samples(q: float) -> int:
    """Smallest sample count whose ``q`` percentile has
    :data:`TAIL_SAMPLES` samples beyond it."""
    return math.ceil(TAIL_SAMPLES / (1.0 - q) - 1e-9)


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank ``q`` percentile; refuses too few samples."""
    if len(samples) < min_samples(q):
        raise ValueError(
            f"p{q * 100:g} needs >= {min_samples(q)} samples "
            f"({TAIL_SAMPLES} beyond it), got {len(samples)}"
        )
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def bump(self, by: int) -> int:
        self.value += by
        return self.value


def calibration_slice(steps: int = 2000) -> float:
    """Seconds a fixed interpreter-bound kernel takes right now: heap
    pushes and pops of tuples, method calls, dict and list traffic —
    the operations a discrete-event simulator in Python is made of,
    with none of the program's code."""
    start = time.perf_counter()
    heap: list = []
    table: dict = {}
    out = []
    for step in range(steps):
        heapq.heappush(heap, ((step * 7919) % 1000, step, _Cell(step)))
        if len(heap) > 64:
            key, seq, cell = heapq.heappop(heap)
            table[seq & 255] = cell.bump(key)
            out.append(table.get(step & 255, 0))
    return time.perf_counter() - start


def calibration_point(slices: int = 3) -> float:
    """Mean over this process's CPUs of the median of a few back-to-back
    slices on each.  Work on several CPUs (the serve pool) feels the
    speed of all of them; the first slice after a core sat idle runs
    slow, and one slice alone is easily disturbed."""
    cpus = sorted(os.sched_getaffinity(0))
    per_cpu = []
    try:
        for cpu in cpus:
            if len(cpus) > 1:
                os.sched_setaffinity(0, {cpu})
            per_cpu.append(statistics.median(calibration_slice() for _ in range(slices)))
    finally:
        if len(cpus) > 1:
            os.sched_setaffinity(0, cpus)
    return statistics.fmean(per_cpu)


#: Calibration-slice time of the reference host.  Every reported time
#: is rescaled to it, so that a host running slower or faster for a
#: while (other tenants, frequency changes) moves the calibration slice
#: and the program alike and cancels out of the ratio.
REFERENCE_SLICE_S = 0.0025


def to_reference(seconds: float, slice_s: float) -> float:
    """Host ``seconds`` measured while the calibration slice took
    ``slice_s``, expressed on the reference host's scale."""
    return seconds * REFERENCE_SLICE_S / slice_s


def host_stamp() -> dict:
    numpy_on = not os.environ.get("REPRO_NO_NUMPY")
    try:
        import numpy  # noqa: F401
    except ImportError:
        numpy_on = False
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_on,
    }
