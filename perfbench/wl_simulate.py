"""``simulate``: the discrete-event simulator on a fixed allocation.

Each request is one ``VODServer.run`` of the paper's Example 1 on the
``(n, B)`` allocation ``repro-vod plan examples/specs/example1.json`` sizes
(given here as input, so no sizing runs), with a seeded ``ServerWorkload``
and a JSONL ``TraceWriter`` to a file: the ``simulate --trace-out`` then
``obs summarize`` validation use.  The simulator and trace emission do all
the work here and none in the other workloads.
"""

from __future__ import annotations

import resource
import time

from helpers import Outcome, median, percentile
from repro.core.hitmodel import VCRMix
from repro.core.parameters import SystemConfiguration
from repro.core.vcrop import VCROperation
from repro.distributions.factory import distribution_from_spec
from repro.exceptions import TraceSchemaError
from repro.obs.summarize import summarize_trace
from repro.obs.trace import TraceWriter, validate_trace_file
from repro.sim.engine import Environment
from repro.vod.buffer import BufferPool
from repro.vod.movie import Movie, MovieCatalog
from repro.vod.server import ServerWorkload, VODServer
from repro.vod.vcr import VCRBehavior

#: Example 1: (length, wait, streams, duration spec, popularity, sized P(hit)).
MOVIES = (
    (75.0, 0.1, 374, {"family": "gamma", "shape": 2, "scale": 4}, 3.0, 0.5012),
    (60.0, 0.5, 60, {"family": "exponential", "mean": 5}, 2.0, 0.5005),
    (90.0, 0.25, 180, {"family": "exponential", "mean": 2}, 1.0, 0.5008),
)
#: Erlang VCR reserve the same plan sizes for these movies.
HEADROOM_STREAMS = 21
ARRIVAL_RATE, HORIZON, WARMUP = 1.0, 500.0, 100.0


class State:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        total = sum(popularity for *_, popularity, _ in MOVIES)
        movies = [Movie(index, f"movie{index + 1}", length, popularity=popularity / total)
                  for index, (length, _, _, _, popularity, _) in enumerate(MOVIES)]
        self.catalog = MovieCatalog(movies, popular_count=len(movies))
        self.allocation = {
            index: SystemConfiguration.from_wait(length, streams, wait)
            for index, (length, wait, streams, *_) in enumerate(MOVIES)
        }
        self.behaviors = {
            index: VCRBehavior(mix=VCRMix.paper_figure7d(),
                               durations={op: distribution_from_spec(spec)
                                          for op in VCROperation})
            for index, (_, _, _, spec, _, _) in enumerate(MOVIES)
        }
        self.predicted = {index: movie[-1] for index, movie in enumerate(MOVIES)}
        self.streams = sum(c.num_partitions for c in self.allocation.values()) \
            + HEADROOM_STREAMS
        self.buffer_minutes = sum(c.buffer_minutes for c in self.allocation.values())

    def simulate(self, replication: int, trace_path):
        """One request: a seeded run writing its trace to ``trace_path``."""
        tracer = TraceWriter(trace_path)
        try:
            server = VODServer(
                self.catalog, self.allocation, num_streams=self.streams,
                buffer_pool=BufferPool.for_minutes(self.buffer_minutes + 1.0),
                behavior=self.behaviors,
                workload=ServerWorkload(arrival_rate=ARRIVAL_RATE, horizon=HORIZON,
                                        warmup=WARMUP,
                                        seed=self.seed * 1000 + replication),
                tracer=tracer, predicted_hits=self.predicted,
            )
            return server.run()
        finally:
            tracer.close()


def setup(seed: int, out_dir) -> State:
    """Build the inputs and run one simulation, so module-level caches and
    lazy imports are filled before timing (a user pays this once per process)."""
    state = State(seed)
    path = out_dir / "sim-warmup.jsonl"
    state.simulate(0, path)
    path.unlink()
    return state


def timed_runs(state: State, seconds: float, out_dir, label: str, at_least: int = 2,
               speed=None):
    """Repeated runs: (reports, raw seconds, scaled seconds, trace paths).
    With ``speed``, each simulator event is a calibration checkpoint and
    each time is scaled to the reference host (``calib.py``)."""
    reports, times, scaled, paths = [], [], [], []
    if speed is not None:
        speed.mark()
    deadline = time.perf_counter() + seconds
    while len(times) < at_least or time.perf_counter() < deadline:
        path = out_dir / f"sim-{label}-{len(times)}.jsonl"
        started = time.perf_counter()
        reports.append(state.simulate(1 + len(times), path))
        ended = time.perf_counter()
        paths.append(path)
        if speed is None:
            times.append(ended - started)
            continue
        speed.mark()
        raw, adjusted = speed.measure(started, ended)
        times.append(raw)
        scaled.append(adjusted)
    return reports, times, scaled, paths


def check_traces(outcome: Outcome, paths) -> int:
    """Validate every trace; count movies whose sized P(hit) lies in the
    Wilson interval ``obs summarize`` reports (a count, not a gate)."""
    agree = 0
    for path in paths:
        try:
            validate_trace_file(path)
        except TraceSchemaError as exc:
            outcome.check(False, f"simulate: {path.name} does not validate: {exc}")
            continue
        summary = summarize_trace(path)
        agree += sum(bool(movie.predicted_within_ci) for movie in summary.movies.values())
        path.unlink()
    return agree


def hook(speed) -> None:
    """Calibration checkpoints at simulator events (untraced runs only)."""
    speed.hook(Environment, "step")


def run(state: State, seconds: float, traced: bool, out_dir, speed) -> Outcome:
    outcome = Outcome()
    reports, times, scaled, paths = timed_runs(state, 0.0 if traced else seconds, out_dir,
                                               "plain", speed=speed)
    viewers = sum(report.viewers_started for report in reports)
    outcome.attempted = len(reports)
    agree = check_traces(outcome, paths)
    outcome.notes.update(runs=len(reports), viewers=viewers,
                         ci_agreement=f"{agree}/{len(paths) * len(MOVIES)}",
                         hit_rates=[round(r.hit_rate, 4) for r in reports])
    if not traced:
        outcome.metrics = {
            "throughput_rps": viewers / sum(scaled),
            "p50_ms": percentile(scaled, 0.50) * 1e3,
            "p99_ms": percentile(scaled, 0.99) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        outcome.notes["raw_run_s"] = times
        return outcome

    from tracing import SpanRecorder, install, layer_metrics

    recorder = SpanRecorder()
    install(recorder)
    traced_reports, traced_times, _, traced_paths = timed_runs(state, 0.0, out_dir, "traced",
                                                            at_least=len(times))
    recorder.dump(out_dir / "spans-simulate.jsonl")
    outcome.layers = layer_metrics(recorder)
    outcome.check(traced_reports[0] == reports[0],
                  "simulate: traced and untraced runs report differently")
    check_traces(outcome, traced_paths)
    outcome.layers.update({
        "sim_viewers_per_s": viewers / sum(scaled),
        "sim.ci_agree": agree,
        "fail_share": 0.0,
        "trace.overhead": median(traced_times) / median(times),
    })
    return outcome
