"""Pure helpers shared by the benchmark workloads (no ``repro`` imports).

Everything here is a plain function of its arguments so the benchmark's own
tests can pin it down: percentiles, stall detection, the ``hit_gap``
classifier and span self time.
"""

from __future__ import annotations

import bisect
import math
import statistics
from dataclasses import dataclass, field

#: Gap, in seconds, with requests outstanding and no response, that counts
#: as a stall seen by the client.
STALL_SECONDS = 0.100

#: Request kinds that carry a phase-1 VCR operation.
VCR_KINDS = frozenset({"pause", "rewind", "fastforward"})


@dataclass
class Outcome:
    """What one run of a workload measured and checked."""

    #: Operations attempted and failed (refused by the service layer).
    attempted: int = 0
    failed: int = 0
    #: One message per failed correctness check; empty means correct.
    failures: list = field(default_factory=list)
    #: End-to-end metrics except ``setup_s`` (untraced runs).
    metrics: dict = field(default_factory=dict)
    #: Per-layer metrics (traced runs).
    layers: dict = field(default_factory=dict)
    #: Set-up times in seconds, one per fresh set-up; ``setup_s`` is their median.
    setup_samples: list = field(default_factory=list)
    #: Facts printed with the result but not judged (choices, counts).
    notes: dict = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        """Record a failed correctness check unless ``ok``."""
        if not ok:
            self.failures.append(message)


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile: rank ``ceil(q * N)``, clamped into range.

    The same definition as ``repro.service.loadgen.LoadReport.latency_percentile``
    and ``repro.obs.registry.Histogram.quantile``; 0.0 for no samples.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    return ordered[min(len(ordered) - 1, max(0, rank - 1))]


def median(values) -> float:
    """The median, 0.0 for no samples."""
    return statistics.median(values) if values else 0.0


def interpolate(xs, ys, x: float) -> float:
    """``ys`` at ``x``, linear between the samples ``xs`` (sorted), held
    flat beyond them."""
    right = bisect.bisect_left(xs, x)
    if right == 0:
        return ys[0]
    if right == len(xs):
        return ys[-1]
    x0, x1 = xs[right - 1], xs[right]
    if x1 == x0:
        return ys[right]
    return ys[right - 1] + (ys[right] - ys[right - 1]) * (x - x0) / (x1 - x0)


def detect_stalls(events, threshold: float = STALL_SECONDS) -> tuple[int, float]:
    """Client-side stalls: gaps of at least ``threshold`` seconds during which
    requests were outstanding and no response arrived.

    ``events`` is an iterable of ``(time, delta)`` pairs, ``delta`` +1 for a
    request sent and -1 for a response received.  A gap runs from the later
    of the previous response and the moment the first outstanding request
    was sent, to the next response.  Returns ``(stalls, stalled_seconds)``.
    """
    outstanding = 0
    anchor = 0.0
    stalls = 0
    stalled = 0.0
    for t, delta in sorted(events, key=lambda event: (event[0], -event[1])):
        if delta > 0:
            if outstanding == 0:
                anchor = t
            outstanding += 1
            continue
        if outstanding == 0:
            raise ValueError(f"response at t={t} with nothing outstanding")
        gap = t - anchor
        if gap >= threshold:
            stalls += 1
            stalled += gap
        outstanding -= 1
        anchor = t
    return stalls, stalled


class ResumeClassifier:
    """Counts genuine phase-2 resumes per movie from a decision sequence.

    A resume is genuine when it belongs to a planned (``batch``) session, it
    follows an admitted VCR operation, and that operation did not start
    inside a miss hold.  A ``miss`` answer carries the hold length in
    ``wait_minutes``, so the client knows when the hold ends without asking
    the server.  Feed :meth:`observe` in time order.
    """

    def __init__(self) -> None:
        self._movie: dict[int, int] = {}
        self._hold_until: dict[int, float] = {}
        self._pending: dict[int, bool] = {}
        #: movie -> [genuine hits, genuine resumes]
        self.resumes: dict[int, list[int]] = {}

    def observe(
        self,
        t: float,
        session: int,
        kind: str,
        decision: str,
        movie: int = -1,
        wait_minutes: float | None = None,
    ) -> None:
        """Account one answered request issued at service minute ``t``."""
        if kind == "session_start":
            if decision == "batch":
                self._movie[session] = movie
            return
        if session not in self._movie:
            return
        if kind == "session_end":
            del self._movie[session]
            self._hold_until.pop(session, None)
            self._pending.pop(session, None)
        elif kind in VCR_KINDS:
            # A denied operation leaves any admitted one still pending.
            if decision == "admit":
                held = t < self._hold_until.get(session, -math.inf)
                self._pending[session] = not held
        elif kind == "resume":
            if self._pending.pop(session, False) and decision in ("hit", "miss"):
                tally = self.resumes.setdefault(self._movie[session], [0, 0])
                tally[0] += decision == "hit"
                tally[1] += 1
            if decision == "miss":
                self._hold_until[session] = t + (wait_minutes or 0.0)


def hit_gap(resumes, model_p) -> float:
    """Resume-weighted mean of ``|observed hit share - model P(hit)|``.

    ``resumes`` maps movie -> ``(hits, resumes)``; ``model_p`` maps movie ->
    the model's ``P(hit)``.  Movies without resumes carry no weight.
    """
    weighted = 0.0
    total = 0
    for movie, (hits, count) in sorted(resumes.items()):
        if count:
            weighted += count * abs(hits / count - model_p[movie])
            total += count
    return weighted / total if total else 0.0


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus what its children cover.

    ``spans`` is a sequence of ``(name, start, end, parent_index, ...)``
    records, ``parent_index`` -1 for a root.  Spans come from synchronous
    nested calls, so a span's children never overlap one another.
    """
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        parent = span[3]
        if parent >= 0:
            own[parent] -= span[2] - span[1]
    return own


def nearest_ancestor(spans, index: int, name: str) -> int:
    """Index of the closest ancestor of span ``index`` named ``name``, or -1."""
    parent = spans[index][3]
    while parent >= 0 and spans[parent][0] != name:
        parent = spans[parent][3]
    return parent
