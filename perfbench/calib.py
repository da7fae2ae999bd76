"""Host-speed calibration: timings scaled to a reference host speed.

The benchmark runs on shared machines whose speed swings by a third or more
within seconds as other tenants come and go; two runs of the same code can
differ by more than any bound worth setting.  So timed work is interleaved
with calibration slices on the same CPU: a slice is a fixed piece of
interpreter work (dict updates, scattered reads from a list larger than the
caches, float arithmetic), the kind of work the ``repro`` hot paths do.

:class:`HostSpeed` runs a slice at checkpoints: between chunks of work the
benchmark itself drives, and, through :meth:`HostSpeed.hook`, before calls
into a public ``repro`` function once ``CHECKPOINT_S`` has passed since the
last slice.  A timed interval is cut at its slices into segments; each
segment's time is scaled by ``REFERENCE_SLICE_S / c``, with ``c`` the median
of the slices within ``WINDOW_S`` of it, and slice time itself is left out.
The result reads as the time the work would take on a host where one slice
takes ``REFERENCE_SLICE_S``.  The unscaled times and the median slice are
reported beside the scaled figures.

No ``repro`` imports: this runs before the package is loaded.
"""

from __future__ import annotations

import bisect
import functools
import os
import random
import statistics
import time

#: Iterations of the calibration loop in one slice.
SLICE_ITERATIONS = 4000
#: Median slice time, in seconds, on the reference host (Intel Xeon at
#: 2.1 GHz, CPython 3.11, quiet period).  Scaled timings read as seconds on
#: a host this fast.
REFERENCE_SLICE_S = 0.0021
#: Slices in a burst, around work that cannot be cut by checkpoints.
BURST = 5
#: Least seconds between two slices run by hooked calls.
CHECKPOINT_S = 0.025
#: Seconds around a segment within which slices count for it.
WINDOW_S = 0.1

_RNG = random.Random(20240601)
_TABLE = [_RNG.random() for _ in range(1 << 18)]
del _RNG


def calibration_slice() -> float:
    """Run one slice; return its wall time in seconds."""
    started = time.perf_counter()
    _slice_work()
    return time.perf_counter() - started


def slice_on(cpu: int) -> float:
    """Run one slice on ``cpu``; return its thread CPU time in seconds.

    For a CPU another process is measured on.  Thread CPU time leaves out
    any time the slice waits while that process has the CPU, so a busy
    server delays the slice without making the host look slower.  The
    caller's affinity is restored afterwards."""
    home = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        started = time.thread_time()
        _slice_work()
        return time.thread_time() - started
    finally:
        os.sched_setaffinity(0, home)


def _slice_work() -> float:
    """The calibration work.

    The slice allocates no container objects, so it never starts a garbage
    collection of the workload's heap.  Its table (about 8 MB of float
    objects) does not fit in a core's own caches, so its reads slow down
    with memory contention the way the workloads' reads do."""
    table = _TABLE
    mask = len(table) - 1
    counts = dict.fromkeys(range(1024), 0)
    total = 0.0
    for i in range(SLICE_ITERATIONS):
        key = (i * 2654435761) & 1023
        counts[key] += 1
        total += table[(i * 7919) & mask] * 0.5
    return total


class HostSpeed:
    """Calibration slices of one run and the intervals they cut.

    With ``cpu`` set, slices run on that CPU through :func:`slice_on`: the
    speed of a CPU a server process is pinned to, measured from its client.
    """

    def __init__(self, cpu: int | None = None) -> None:
        self.cpu = cpu
        #: (perf_counter before, perf_counter after, slice seconds), in order
        self.marks: list[tuple[float, float, float]] = []
        self._last = 0.0

    def mark(self) -> None:
        """Run one slice now."""
        before = time.perf_counter()
        seconds = calibration_slice() if self.cpu is None else slice_on(self.cpu)
        self._last = time.perf_counter()
        self.marks.append((before, self._last, seconds))

    def burst(self, count: int = BURST) -> None:
        for _ in range(count):
            self.mark()

    def due(self) -> bool:
        """True when ``CHECKPOINT_S`` has passed since the last slice."""
        return time.perf_counter() - self._last >= CHECKPOINT_S

    def checkpoint(self) -> None:
        """Run a slice if ``CHECKPOINT_S`` has passed since the last one."""
        if self.due():
            self.mark()

    def hook(self, owner, attr: str) -> None:
        """Make every call of ``owner.attr`` a checkpoint first."""
        fn = getattr(owner, attr)
        checkpoint = self.checkpoint

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            checkpoint()
            return fn(*args, **kwargs)

        setattr(owner, attr, wrapper)

    def measure(self, start: float, end: float) -> tuple[float, float]:
        """(raw, scaled) seconds of work in ``[start, end]``, slices left out."""
        return measure(self.marks, start, end)

    def median_slice_s(self) -> float:
        return statistics.median(seconds for _, _, seconds in self.marks)


def scale_factor(marks, start: float, end: float, window: float = WINDOW_S,
                 reference: float = REFERENCE_SLICE_S) -> float:
    """``reference`` over the median of the slices run within ``window``
    seconds of ``[start, end]``; with none there, the ``2 * BURST`` nearest
    slices stand in."""
    first = bisect.bisect_left(marks, start - window, key=lambda mark: mark[1])
    local = []
    for before, _, seconds in marks[first:]:
        if before > end + window:
            break
        local.append(seconds)
    if not local:
        if not marks:
            raise ValueError("no calibration slices recorded")
        nearest = sorted(marks, key=lambda m: min(abs(m[1] - start), abs(m[0] - end)))
        local = [seconds for _, _, seconds in nearest[:2 * BURST]]
    return reference / statistics.median(local)


def measure(marks, start: float, end: float) -> tuple[float, float]:
    """(raw, scaled) seconds of ``[start, end]`` with the slices inside it
    left out; each segment between slices is scaled by its local factor."""
    raw = scaled = 0.0
    cursor = start
    first = bisect.bisect_right(marks, start, key=lambda mark: mark[1])
    for before, after, _ in marks[first:]:
        if before >= end:
            break
        if before > cursor:
            raw += before - cursor
            scaled += (before - cursor) * scale_factor(marks, cursor, before)
        cursor = max(cursor, after)
    if end > cursor:
        raw += end - cursor
        scaled += (end - cursor) * scale_factor(marks, cursor, end)
    return raw, scaled

