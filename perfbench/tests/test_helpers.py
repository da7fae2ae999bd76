"""Tests for the benchmark's pure helpers.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

from helpers import (  # noqa: E402
    ResumeClassifier,
    detect_stalls,
    hit_gap,
    interpolate,
    nearest_ancestor,
    percentile,
    self_times,
)
from repro.service.loadgen import LoadReport  # noqa: E402


@pytest.mark.parametrize("size", [1, 2, 3, 10, 99, 100, 101, 1000])
@pytest.mark.parametrize("q", [0.0, 0.01, 0.5, 0.9, 0.99, 0.999, 1.0])
def test_percentile_matches_load_report(size, q):
    values = [random.Random(size).uniform(0.0, 50.0) for _ in range(size)]
    report = LoadReport(mode="wall", latencies_ms=list(values))
    assert percentile(values, q) == report.latency_percentile(q)


def test_percentile_of_nothing_is_zero():
    assert percentile([], 0.99) == 0.0
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


def test_interpolate_is_linear_between_samples_and_flat_beyond():
    xs, ys = [1.0, 2.0, 4.0], [10.0, 20.0, 20.0]
    assert interpolate(xs, ys, 1.5) == pytest.approx(15.0)
    assert interpolate(xs, ys, 3.0) == pytest.approx(20.0)
    assert interpolate(xs, ys, 2.0) == 20.0
    assert interpolate(xs, ys, 0.0) == 10.0
    assert interpolate(xs, ys, 9.0) == 20.0
    assert interpolate([1.0, 1.0], [3.0, 5.0], 1.0) == 3.0


def test_stalls_need_a_gap_with_requests_outstanding():
    events = [
        (0.00, 1), (0.01, -1),                # answered quickly
        (1.00, 1), (1.05, 1), (1.30, -1),     # 0.30 s gap from the first send
        (1.32, -1),                           # next answer follows closely
        (2.00, 1), (2.25, -1),                # 0.25 s gap
        (5.00, 1), (5.09, -1),                # idle time before is no stall
    ]
    stalls, stalled = detect_stalls(events)
    assert stalls == 2
    assert stalled == pytest.approx(0.30 + 0.25)


def test_stall_gap_restarts_at_each_answer():
    # Answers 80 ms apart never make a 100 ms gap, however long the queue.
    events = [(0.0, 1)] * 5 + [(0.08 * k, -1) for k in range(1, 6)]
    assert detect_stalls(events) == (0, 0.0)


def test_answer_without_request_is_an_error():
    with pytest.raises(ValueError):
        detect_stalls([(0.0, -1)])


def _feed(classifier, rows):
    for row in rows:
        classifier.observe(*row)


def test_hit_gap_counts_only_genuine_phase2_resumes():
    classifier = ResumeClassifier()
    _feed(classifier, [
        # planned session 1 on movie 0: two genuine resumes, a hit and a miss
        (0.0, 1, "session_start", "batch", 0),
        (1.0, 1, "pause", "admit"),
        (2.0, 1, "resume", "hit"),
        (3.0, 1, "rewind", "admit"),
        (4.0, 1, "resume", "miss", -1, 10.0),        # hold until minute 14
        (5.0, 1, "fastforward", "admit"),            # inside the hold
        (6.0, 1, "resume", "hit"),                   # pinned stream: not genuine
        (15.0, 1, "pause", "admit"),                 # hold over
        (16.0, 1, "resume", "hit"),
        # denied operation: its resume is not a phase-2 decision
        (17.0, 1, "pause", "deny"),
        (18.0, 1, "resume", "deny"),
        (19.0, 1, "session_end", "closed"),
        # tail session 2 (admit, dedicated stream): never counted
        (0.5, 2, "session_start", "admit", 7),
        (1.5, 2, "pause", "admit"),
        (2.5, 2, "resume", "hit"),
        # planned session 3 on movie 1: one genuine hit
        (0.7, 3, "session_start", "batch", 1),
        (1.7, 3, "pause", "admit"),
        (2.7, 3, "resume", "hit"),
    ])
    assert classifier.resumes == {0: [2, 3], 1: [1, 1]}
    gap = hit_gap(classifier.resumes, {0: 0.5, 1: 0.25})
    # movie 0: |2/3 - 0.5| over 3 resumes; movie 1: |1 - 0.25| over 1.
    assert gap == pytest.approx((3 * (2 / 3 - 0.5) + 1 * 0.75) / 4)


def test_hit_gap_without_resumes_is_zero():
    assert hit_gap({}, {0: 0.4}) == 0.0


def test_self_time_subtracts_direct_children():
    spans = [
        ("handle", 0, 100, -1),
        ("tick", 10, 60, 0),
        ("solve", 20, 50, 1),
        ("gate", 70, 80, 0),
        ("encode", 100, 110, -1),
    ]
    assert self_times(spans) == [100 - 50 - 10, 50 - 30, 30, 10, 10]
    assert nearest_ancestor(spans, 2, "handle") == 0
    assert nearest_ancestor(spans, 2, "tick") == 1
    assert nearest_ancestor(spans, 4, "handle") == -1
