"""Benchmark-owned spans around public calls into each ``repro`` layer.

:func:`install` replaces a fixed set of public functions and methods with
wrappers that record one span per call: ``(name, start_ns, end_ns, parent,
label)``, the label being the request id on the service path and the batch
size on model and frontier-point calls.  The calls are synchronous and the recorder is used from one
thread, so a stack gives each span its parent.  Spans stay in memory;
:meth:`SpanRecorder.dump` writes them out when the run ends, and
:func:`layer_metrics` reduces them to the per-layer metrics.

Module-level functions are patched where their caller looks them up (for
example ``repro.service.server.decode_request``), methods on their class.
Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import json
import time

from helpers import VCR_KINDS, median, nearest_ancestor, self_times

#: engine request kind -> the ``engine.handle_us.<group>`` it is reported in.
KIND_GROUPS = {
    "session_start": "start",
    "pause": "vcr",
    "rewind": "vcr",
    "fastforward": "vcr",
    "resume": "resume",
    "session_end": "end",
}
HANDLE_GROUPS = ("start", "vcr", "resume", "end")
DECISION_NAMES = ("admit", "batch", "reject", "deny", "hit", "miss", "closed", "error")


class SpanRecorder:
    """In-memory span list plus plain call counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.decisions: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, fn, name, label=None, on_result=None):
        """``fn`` wrapped in a span.

        ``name`` is a string or a callable of the call's arguments;
        ``label(args, result)`` labels the span; ``on_result(args, result)``
        lets the caller count outcomes.
        """
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name(args) if callable(name) else name, 0, 0,
                      stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if label is not None:
                record[4] = label(args, result)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def count(self, fn, name):
        """``fn`` wrapped in a bare call counter (no span)."""
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path) -> None:
        """Write spans (one JSON array per line) and counters to ``path``."""
        with open(path, "w", encoding="utf-8") as sink:
            sink.write(json.dumps({"counts": self.counts,
                                   "decisions": self.decisions}) + "\n")
            for record in self.spans:
                sink.write(json.dumps(record) + "\n")

    def merge(self, other: "SpanRecorder") -> None:
        """Append another recorder's spans and add up its counters."""
        offset = len(self.spans)
        self.spans.extend([name, start, end, parent + offset if parent >= 0 else -1, label]
                          for name, start, end, parent, label in other.spans)
        for table, extra in ((self.counts, other.counts), (self.decisions, other.decisions)):
            for key, value in extra.items():
                table[key] = table.get(key, 0) + value

    @classmethod
    def load(cls, path) -> "SpanRecorder":
        """Read back what :meth:`dump` wrote."""
        recorder = cls()
        with open(path, encoding="utf-8") as source:
            header = json.loads(source.readline())
            recorder.counts = header["counts"]
            recorder.decisions = header["decisions"]
            recorder.spans = [json.loads(line) for line in source]
        return recorder


def _patch(recorder: SpanRecorder, owner, attr: str, name, **options) -> None:
    setattr(owner, attr, recorder.wrap(getattr(owner, attr), name, **options))


def install(recorder: SpanRecorder) -> None:
    """Wrap the public calls of every layer the benchmark reports on."""
    import repro.service.server as server
    import repro.vod.piggyback as piggyback
    from repro.core.hitmodel import HitProbabilityModel
    from repro.obs.trace import TraceWriter
    from repro.runtime.admission import RuntimeAdmissionGate
    from repro.runtime.circuit import GuardedControlLoop
    from repro.service.engine import AdmissionEngine
    from repro.service.state import SessionRegistry
    from repro.sim.engine import Environment
    from repro.sizing.feasible import FeasibleSet
    from repro.sizing.planner import SystemSizer
    from repro.sizing.reservation import VCRLoadModel
    from repro.vod.partitioning import MovieService
    from repro.vod.server import VODServer

    decisions = recorder.decisions
    counts = recorder.counts
    counts.update({"engine.vcr_requests": 0, "engine.vcr_admits": 0})

    def note_decision(args, response):
        decisions[response.decision] = decisions.get(response.decision, 0) + 1
        if args[1].kind in VCR_KINDS:
            counts["engine.vcr_requests"] += 1
            counts["engine.vcr_admits"] += response.decision == "admit"

    def request_of(args, result):
        return args[1].request_id

    def how_many(args, result):
        return len(result)

    # Transport and codec (server side).
    _patch(recorder, server, "decode_request", "protocol.decode",
           label=lambda args, result: result.request_id)
    _patch(recorder, server, "encode_response", "protocol.encode",
           label=lambda args, result: args[0].request_id)
    # Decision path.
    _patch(recorder, AdmissionEngine, "handle",
           lambda args: "engine.handle." + KIND_GROUPS.get(args[1].kind, "admin"),
           label=request_of, on_result=note_decision)
    _patch(recorder, RuntimeAdmissionGate, "screen", "engine.gate")
    for method in ("open", "get", "close"):
        _patch(recorder, SessionRegistry, method, "registry")
    # Control plane.
    _patch(recorder, GuardedControlLoop, "run_tick", "runtime.tick")
    # Model kernels: every batched evaluation funnels through breakdown_batch;
    # its spans and the frontier-point spans are labelled with their size.
    _patch(recorder, HitProbabilityModel, "breakdown_batch", "model.eval",
           label=how_many)
    # Sizing.
    _patch(recorder, SystemSizer, "solve", "sizing.solve")
    _patch(recorder, FeasibleSet, "max_streams", "sizing.frontier")
    _patch(recorder, FeasibleSet, "point", "sizing.points",
           label=lambda args, result: 1)
    _patch(recorder, FeasibleSet, "points_batch", "sizing.points", label=how_many)
    _patch(recorder, VCRLoadModel, "plan", "sizing.reserve")
    # Simulator.
    _patch(recorder, VODServer, "run", "sim.run")
    _patch(recorder, MovieService, "find_window", "sim.kinematics")
    _patch(recorder, piggyback, "find_covering_window", "sim.kinematics")
    Environment.step = recorder.count(Environment.step, "sim.events")
    # Trace emission.
    _patch(recorder, TraceWriter, "emit", "trace.emit")


def layer_metrics(recorder: SpanRecorder) -> dict[str, float]:
    """Reduce recorded spans to the span-derived per-layer metrics."""
    spans = recorder.spans
    own = self_times(spans)
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    for record, ns in zip(spans, own):
        self_ns[record[0]] = self_ns.get(record[0], 0) + ns
        calls[record[0]] = calls.get(record[0], 0) + 1

    def mean_us(name: str) -> float:
        return self_ns.get(name, 0) / calls[name] / 1e3 if calls.get(name) else 0.0

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    tick_ms = [(r[2] - r[1]) / 1e6 for r in spans if r[0] == "runtime.tick"]
    replanned_ticks = {nearest_ancestor(spans, index, "runtime.tick")
                       for index, r in enumerate(spans) if r[0] == "sizing.solve"}
    replanned_ticks.discard(-1)
    frontier_ns = sum(r[2] - r[1] for r in spans if r[0] == "sizing.frontier")
    reserve_ns = sum(r[2] - r[1] for r in spans if r[0] == "sizing.reserve")
    configs = sum(r[4] for r in spans if r[0] == "model.eval")
    evaluated_for_points = sum(
        r[4] for index, r in enumerate(spans)
        if r[0] == "model.eval" and nearest_ancestor(spans, index, "sizing.points") >= 0
    )
    requested = sum(r[4] for r in spans if r[0] == "sizing.points")
    counts = recorder.counts
    solves = calls.get("sizing.solve", 0)
    handled = sum(calls.get("engine.handle." + group, 0) for group in HANDLE_GROUPS)
    events = counts.get("sim.events", 0)
    metrics = {
        "protocol.decode_us": mean_us("protocol.decode"),
        "protocol.encode_us": mean_us("protocol.encode"),
        "runtime.ticks": len(tick_ms),
        "runtime.replans": len(replanned_ticks),
        "runtime.tick_ms_p50": median(tick_ms),
        "runtime.tick_ms_max": max(tick_ms, default=0.0),
    }
    for group in HANDLE_GROUPS:
        metrics["engine.handle_us." + group] = mean_us("engine.handle." + group)
    metrics["engine.gate_us"] = mean_us("engine.gate")
    for decision in DECISION_NAMES:
        metrics["engine.decisions." + decision] = recorder.decisions.get(decision, 0)
    metrics.update({
        "engine.phase1_grant_ratio": per(counts.get("engine.vcr_admits", 0),
                                         counts.get("engine.vcr_requests", 0)),
        "registry.us_per_req": per(self_ns.get("registry", 0) / 1e3, handled),
        "model.configs": configs,
        "model.us_per_config": per(self_ns.get("model.eval", 0) / 1e3, configs),
        "sizing.frontier_s": per(frontier_ns / 1e9, solves),
        "sizing.reserve_s": per(reserve_ns / 1e9, solves),
        "sizing.cache_hit_ratio": 1.0 - per(evaluated_for_points, requested) if requested else 0.0,
        "sim.events": events,
        "sim.us_per_event": per(self_ns.get("sim.run", 0) / 1e3, events),
        "sim.kinematics_us": mean_us("sim.kinematics"),
        "trace.events": calls.get("trace.emit", 0),
        "trace.emit_us": mean_us("trace.emit"),
    })
    return metrics
