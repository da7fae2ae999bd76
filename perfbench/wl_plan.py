"""``plan``: multi-movie sizing, as ``repro-vod plan`` does it.

Each request is ``SystemSizer(specs).solve()`` plus ``VCRLoadModel.plan`` for
every movie, over one seeded catalog spec of six movies that mixes duration
families, wait targets and ``P*`` targets.  Every request builds a fresh
sizer, so no frontier point carries over.  The model kernels and the sizing
sweeps do all the work here and almost none in ``decide`` or ``simulate``.
"""

from __future__ import annotations

import random
import resource
import time

from helpers import Outcome, median, percentile
from repro.core.hitmodel import HitProbabilityModel, VCRMix
from repro.distributions.factory import distribution_from_spec
from repro.numerics.backend import use_backend
from repro.sizing.feasible import MovieSizingSpec
from repro.sizing.planner import SystemSizer
from repro.sizing.reservation import VCRLoadModel

#: One slot per movie: (duration family, wait target in minutes, P* target).
#: Families, waits and targets are fixed so every seed asks for about the
#: same amount of work; the seed jitters lengths, distribution parameters,
#: the targets and the arrival rates.
SLOTS = (
    ("gamma", 1.0, 0.50),
    ("exponential", 1.0, 0.60),
    ("lognormal", 0.5, 0.40),
    ("weibull", 2.0, 0.50),
    ("uniform", 0.5, 0.45),
    ("exponential", 2.0, 0.55),
)
BLOCKING_TARGET = 0.01


def catalog_spec(seed: int) -> list[dict]:
    """The seeded catalog, in the JSON shape ``repro-vod plan`` reads."""
    rng = random.Random(seed)

    def near(value: float) -> float:
        return value * rng.uniform(0.96, 1.04)

    durations = {
        "gamma": lambda: {"family": "gamma", "shape": near(2.0), "scale": near(3.0)},
        "exponential": lambda: {"family": "exponential", "mean": near(4.0)},
        "lognormal": lambda: {"family": "lognormal", "mean": near(4.0), "cv": near(0.8)},
        "weibull": lambda: {"family": "weibull", "mean": near(4.0), "shape": near(1.5)},
        "uniform": lambda: {"family": "uniform", "lo": near(0.5), "hi": near(8.0)},
    }
    return [
        {
            "name": f"movie{index}",
            "length": near(60.0),
            "wait": wait,
            "p_star": p_star + rng.uniform(-0.01, 0.01),
            "duration": durations[family](),
            "arrival_rate": near(0.3),
            "mean_think_time": 15.0,
        }
        for index, (family, wait, p_star) in enumerate(SLOTS)
    ]


class State:
    def __init__(self, seed: int) -> None:
        self.entries = catalog_spec(seed)
        self.specs = [
            MovieSizingSpec(
                name=entry["name"],
                length=entry["length"],
                max_wait=entry["wait"],
                durations=distribution_from_spec(entry["duration"]),
                p_star=entry["p_star"],
                mix=VCRMix.paper_figure7d(),
            )
            for entry in self.entries
        ]


def setup(seed: int, out_dir) -> State:
    """Build the specs and run one solve, so module-level caches and lazy
    imports are filled before timing (a user pays this once per process)."""
    state = State(seed)
    state.warm_answer = solve(state)
    return state


def solve(state: State):
    """One ``plan`` request: the allocation plus one reserve plan per movie."""
    sizer = SystemSizer(state.specs)
    report = sizer.solve()
    reserves = []
    for allocation, feasible, entry in zip(report.result.allocations,
                                           sizer.feasible_sets, state.entries):
        load = VCRLoadModel(feasible.model, allocation.configuration(),
                            viewer_arrival_rate=entry["arrival_rate"],
                            mean_think_time=entry["mean_think_time"])
        reserves.append(load.plan(blocking_target=BLOCKING_TARGET).reserve_streams)
    return tuple((a.num_streams, a.buffer_minutes, a.hit_probability)
                 for a in report.result.allocations), tuple(reserves)


def timed_solves(state: State, seconds: float, at_least: int, speed=None):
    """Repeated solves: (answers, raw seconds, scaled seconds).  With
    ``speed``, each model evaluation is a calibration checkpoint and each
    time is scaled to the reference host (``calib.py``)."""
    answers, times, scaled = [], [], []
    if speed is not None:
        speed.mark()
    deadline = time.perf_counter() + seconds
    while len(times) < at_least or time.perf_counter() < deadline:
        started = time.perf_counter()
        answers.append(solve(state))
        ended = time.perf_counter()
        if speed is None:
            times.append(ended - started)
            continue
        speed.mark()
        raw, adjusted = speed.measure(started, ended)
        times.append(raw)
        scaled.append(adjusted)
    return answers, times, scaled


def check_allocations(outcome: Outcome, state: State, allocations) -> None:
    """Each allocation meets its wait and its P*, re-checked by the scalar oracle."""
    with use_backend("scalar"):
        for spec, (streams, buffer_minutes, _) in zip(state.specs, allocations):
            wait = (spec.length - buffer_minutes) / streams
            outcome.check(wait <= spec.max_wait * (1 + 1e-9),
                          f"plan: {spec.name} waits {wait:g} > {spec.max_wait:g}")
            model = spec.build_model()
            p_hit = model.hit_probability(model.configuration(streams, buffer_minutes))
            outcome.check(p_hit >= spec.p_star,
                          f"plan: {spec.name} P(hit)={p_hit:.4f} < P*={spec.p_star:.4f}")


def hook(speed) -> None:
    """Calibration checkpoints at model evaluations (untraced runs only)."""
    speed.hook(HitProbabilityModel, "breakdown_batch")


def run(state: State, seconds: float, traced: bool, out_dir, speed) -> Outcome:
    outcome = Outcome()
    answers, times, scaled = timed_solves(state, 0.0 if traced else seconds, at_least=2,
                                          speed=speed)
    outcome.attempted = len(answers)
    outcome.check(set(answers) == {state.warm_answer}, "plan: repeated solves disagree")
    check_allocations(outcome, state, answers[0][0])
    outcome.notes.update(solves=len(answers), allocations=answers[0][0],
                         reserves=answers[0][1])
    if not traced:
        outcome.metrics = {
            "throughput_rps": len(scaled) / sum(scaled),
            "p50_ms": percentile(scaled, 0.50) * 1e3,
            "p99_ms": percentile(scaled, 0.99) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        outcome.notes["raw_solve_s"] = times
        return outcome

    from tracing import SpanRecorder, install, layer_metrics

    recorder = SpanRecorder()
    install(recorder)
    traced_answers, traced_times, _ = timed_solves(state, 0.0, at_least=2)
    recorder.dump(out_dir / "spans-plan.jsonl")
    outcome.check(traced_answers[0] == answers[0],
                  "plan: traced and untraced allocations differ")
    outcome.layers = layer_metrics(recorder)
    outcome.layers.update({
        "solve_s": median(scaled),
        "fail_share": 0.0,
        "trace.overhead": median(traced_times) / median(times),
    })
    return outcome
