"""``decide``: the engine's decision path in process, on a virtual clock.

``AdmissionEngine.handle`` runs in timeline order the way
``repro.service.loadgen.run_virtual`` drives it, with ``catalog_registry()``
attached and no controller, as in ``repro-vod loadgen --mode virtual``.  The
audience is large (60 sessions/min for 120 service minutes, capacity 4000,
reserve 300, about 6.8k sessions open at the peak), so the session registry
holds about 20 times more open sessions than in ``serve``.  No sockets, no
control ticks: the decision path does almost all the work.
"""

from __future__ import annotations

import hashlib
import resource
import time
from array import array

from calib import scale_factor
from helpers import Outcome, ResumeClassifier, hit_gap, median, percentile
from repro.core.hitmodel import HitProbabilityModel
from repro.obs.catalog import catalog_registry
from repro.service.bootstrap import default_behavior, default_catalog, plan_for, workload_for
from repro.service.clock import VirtualClock
from repro.service.engine import AdmissionEngine
from repro.service.loadgen import compile_timeline

MOVIES, POPULAR, WAIT, CATALOG_SEED = 20, 5, 2.0, 1234
ARRIVAL_RATE, HORIZON = 60.0, 120.0
CAPACITY, RESERVE = 4000, 300
#: Timeline entries replayed between two calibration slices.
CHUNK = 2048


class State:
    """Inputs built in set-up."""

    def __init__(self, seed: int) -> None:
        self.catalog = default_catalog(MOVIES, POPULAR, seed=CATALOG_SEED)
        self.plan = plan_for(self.catalog, WAIT)
        started = time.perf_counter()
        trace = workload_for(self.catalog, ARRIVAL_RATE, HORIZON, seed)
        self.generate_s = time.perf_counter() - started
        started = time.perf_counter()
        self.timeline = compile_timeline(trace)
        self.compile_s = time.perf_counter() - started
        self.engine = self.new_engine()

    def new_engine(self) -> AdmissionEngine:
        return AdmissionEngine(self.catalog, self.plan, CAPACITY,
                               reserve_streams=RESERVE, clock=VirtualClock(),
                               registry=catalog_registry())


def setup(seed: int, out_dir) -> State:
    return State(seed)


class Replay:
    """One pass over the timeline through one fresh engine.

    The timeline is replayed in chunks of ``CHUNK`` entries with a
    calibration slice between chunks (when ``speed`` is given), so each
    chunk's time can be scaled by the host speed around it.
    """

    def __init__(self, state: State, engine: AdmissionEngine, speed=None) -> None:
        clock = engine._clock
        handle = engine.handle
        tick = time.perf_counter_ns
        timeline = state.timeline
        sent = []
        latencies = []
        #: (start, end, index of the chunk's first latency)
        self.chunks: list[tuple[float, float, int]] = []
        open_sessions: set[int] = set()
        ended: set[int] = set()
        skipped_after_end = 0
        for offset in range(0, len(timeline), CHUNK):
            if speed is not None:
                speed.mark()
            mark = len(latencies)
            began = time.perf_counter()
            for timed in timeline[offset:offset + CHUNK]:
                request = timed.request
                clock.advance_to(max(clock.now(), timed.at_minutes))
                if request.kind != "session_start" and request.session not in open_sessions:
                    # Rejected or already ended: a real client sends nothing.
                    skipped_after_end += request.session in ended
                    continue
                before = tick()
                response = handle(request)
                latencies.append(tick() - before)
                sent.append((timed, response))
                if request.kind == "session_start" and response.decision in ("admit", "batch"):
                    open_sessions.add(request.session)
                elif request.kind == "session_end":
                    open_sessions.discard(request.session)
                    ended.add(request.session)
            self.chunks.append((began, time.perf_counter(), mark))
        if speed is not None:
            speed.mark()
        self.wall_s = sum(end - began for began, end, _ in self.chunks)
        self.latencies_ns = array("q", latencies)
        self.sent = sent
        self.skipped_after_end = skipped_after_end
        self.peak_open = engine.registry.peak_open
        digest = hashlib.sha256()
        self.decisions: dict[str, int] = {}
        for timed, response in sent:
            digest.update(f"{timed.request.kind} {response.session} "
                          f"{response.decision} {response.reason}\n".encode())
            self.decisions[response.decision] = self.decisions.get(response.decision, 0) + 1
        #: Hash of the decision sequence (kind, session, decision, reason).
        self.digest = digest.hexdigest()
        self.requests = len(sent)

    def scaled(self, speed) -> tuple[float, list[list[float]]]:
        """Wall seconds and each chunk's request latencies (ms), scaled to
        the reference host chunk by chunk."""
        wall = 0.0
        chunks_ms = []
        bounds = [mark for _, _, mark in self.chunks[1:]] + [len(self.latencies_ns)]
        for (began, end, mark), stop in zip(self.chunks, bounds):
            factor = scale_factor(speed.marks, began, end)
            wall += (end - began) * factor
            chunks_ms.append([ns * factor / 1e6 for ns in self.latencies_ns[mark:stop]])
        return wall, chunks_ms


def model_hit_probabilities(catalog, plan) -> dict[int, float]:
    """The model's ``P(hit)`` for each planned movie's configuration under
    the deployment's VCR behaviour."""
    behavior = default_behavior()
    lengths = {movie.movie_id: movie.length for movie in catalog}
    return {
        movie: HitProbabilityModel(lengths[movie], behavior.durations,
                                   mix=behavior.mix).hit_probability(config)
        for movie, config in plan.items()
    }


def engine_hit_gap(state: State, replay: Replay) -> float:
    classifier = ResumeClassifier()
    for timed, response in replay.sent:
        request = timed.request
        classifier.observe(timed.at_minutes, request.session, request.kind,
                           response.decision, movie=request.movie,
                           wait_minutes=response.wait_minutes)
    return hit_gap(classifier.resumes, model_hit_probabilities(state.catalog, state.plan))


def run(state: State, seconds: float, traced: bool, out_dir, speed) -> Outcome:
    outcome = Outcome()
    replays = [Replay(state, state.engine, speed)]
    if not traced:
        deadline = time.perf_counter() + seconds - replays[0].wall_s
        while time.perf_counter() < deadline:
            replay = Replay(state, state.new_engine(), speed)
            replay.sent = None  # keep one replay's responses, as one run would
            replays.append(replay)
    first = replays[0]
    decisions = first.decisions
    outcome.attempted = sum(r.requests for r in replays)
    outcome.failed = sum(r.decisions.get("error", 0) for r in replays)
    outcome.check(decisions.get("error", 0) == 0,
                  f"decide: {decisions.get('error', 0)} error decisions")
    outcome.check(len({r.digest for r in replays}) == 1,
                  "decide: replays of one timeline disagree")
    outcome.notes.update(replays=len(replays), requests=first.requests,
                         peak_open_sessions=first.peak_open,
                         decisions=dict(sorted(decisions.items())))
    if not traced:
        wall = 0.0
        chunks_ms = []
        for replay in replays:
            replay_wall, replay_chunks = replay.scaled(speed)
            wall += replay_wall
            chunks_ms.extend(replay_chunks)
        latencies_ms = [latency for chunk in chunks_ms for latency in chunk]
        outcome.metrics = {
            "throughput_rps": outcome.attempted / wall,
            "p50_ms": percentile(latencies_ms, 0.50),
            "p99_ms": percentile(latencies_ms, 0.99),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        outcome.notes["raw_throughput_rps"] = outcome.attempted / sum(r.wall_s for r in replays)
        return outcome

    from tracing import SpanRecorder, install, layer_metrics

    gap = engine_hit_gap(state, first)  # before install: the model is not traced
    recorder = SpanRecorder()
    install(recorder)
    traced_replay = Replay(state, state.new_engine())
    recorder.dump(out_dir / "spans-decide.jsonl")
    outcome.check(traced_replay.digest == first.digest,
                  "decide: traced and untraced decision digests differ")
    outcome.layers = layer_metrics(recorder)
    outcome.layers.update({
        "hit_gap": gap,
        "fail_share": outcome.failed / outcome.attempted,
        "trace.overhead": traced_replay.wall_s / first.wall_s,
        "engine.peak_open_sessions": first.peak_open,
        "workloads.generate_s": state.generate_s,
        "workloads.compile_s": state.compile_s,
        "client.skipped_after_end": first.skipped_after_end,
    })
    outcome.notes["median_handle_us"] = median(first.latencies_ns) / 1e3
    return outcome
