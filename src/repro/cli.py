"""Command-line interface: ``repro-vod`` / ``python -m repro``.

Subcommands
-----------
``list``
    Show the available experiments.
``run <id> [--fast] [--csv DIR]``
    Reproduce one figure/table; optionally export each table as CSV.
``hit [...]``
    Evaluate the analytical ``P(hit)`` for one configuration from the
    command line (quick what-if queries).
``size [...]``
    Solve a single-movie sizing problem: the smallest buffer meeting a wait
    and hit-probability target.
``plan <spec.json> [...]``
    Multi-movie sizing from a JSON specification file (Example-1 style),
    including the Erlang VCR-reserve layer.
``fit <trace.jsonl>``
    Fit VCR behaviour statistics out of a workload trace.
``simulate <spec.json> [...]``
    Size a system from a spec, then run the full VOD-server simulation on
    the sized allocation and report the realised performance.
``runtime --trace <trace.jsonl> [--tick MIN] [...]``
    Replay a logged trace through the online control plane tick by tick:
    telemetry ingest, drift-gated re-fit, re-plan, and a log line for every
    emitted :class:`AllocationDelta`.
``obs summarize <trace.jsonl>`` / ``obs validate <trace.jsonl>``
    Replay a structured observability trace into a run report, or validate
    it against the event schema.
``faults run [plan.json] [...]``
    Run the chaos test-bed server under a fault plan — loaded from JSON or
    generated from ``(--seed, --horizon, --intensity)`` — with or without
    the graceful-degradation policies, and report the realised outcome.
``serve [--port P] [--duration SEC] [...]``
    Run the live asyncio admission service: a TCP JSON-line server routing
    session-start/VCR/session-end requests through the runtime control
    plane, with backpressure, graceful drain and deterministic fault
    injection (see :mod:`repro.service`).
``loadgen [--mode wall|virtual] [...]``
    Drive an admission service from a seeded workload: ``wall`` mode
    benchmarks a running ``serve`` instance over TCP; ``virtual`` mode runs
    the same deployment in process on a virtual clock and writes a
    byte-identical decision log for a given seed.
``lint [root] [--format json] [--baseline FILE] [--update-baseline] [...]``
    Run the project's domain-aware static analysis (determinism lints,
    trace/metric schema cross-checks, exception hygiene, unit mixing) over a
    source tree.  Exit 0 when clean, 2 on findings.

Observability
-------------
``run``, ``simulate`` and ``runtime`` accept ``--trace-out FILE`` (structured
JSONL event trace) and ``--metrics-out FILE`` (Prometheus text exposition,
stable tier only — byte-identical across worker counts).  The global
``-v``/``-q`` flags configure the library's logging verbosity.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core.hitmodel import HitProbabilityModel, VCRMix
from repro.core.vcrop import VCROperation
from repro.distributions.factory import distribution_from_spec
from repro.exceptions import ConfigurationError
from repro.experiments.registry import available_experiments, run_experiment
from repro.numerics.backend import BACKENDS, active_backend, set_backend
from repro.obs.log import configure as configure_logging
from repro.obs.registry import ObsRegistry
from repro.obs.trace import TraceWriter
from repro.sizing.feasible import FeasibleSet, MovieSizingSpec

__all__ = ["main", "build_parser"]


def _add_obs_outputs(command: argparse.ArgumentParser) -> None:
    """Attach the shared ``--trace-out`` / ``--metrics-out`` options."""
    command.add_argument(
        "--trace-out", type=Path, default=None, metavar="FILE",
        help="write a structured JSONL event trace to FILE",
    )
    command.add_argument(
        "--metrics-out", type=Path, default=None, metavar="FILE",
        help="write Prometheus-format metrics (stable tier) to FILE",
    )


def _add_service_deployment(command: argparse.ArgumentParser) -> None:
    """Attach the deployment knobs ``serve`` and ``loadgen`` must share."""
    command.add_argument(
        "--movies", type=int, default=20, help="catalog size (Zipf popularity)"
    )
    command.add_argument(
        "--popular", type=int, default=5,
        help="movies covered by the batching plan; the rest are long tail",
    )
    command.add_argument(
        "--wait", type=float, default=2.0, metavar="MIN",
        help="batching wait target w for planned movies",
    )
    command.add_argument(
        "--capacity", type=int, default=None, metavar="STREAMS",
        help="total I/O stream capacity (default: plan + reserve + tail headroom)",
    )
    command.add_argument(
        "--reserve", type=int, default=None, metavar="STREAMS",
        help="VCR reserve streams (default: 10%% of the plan, at least 1)",
    )
    command.add_argument(
        "--tick", type=float, default=30.0, metavar="MIN",
        help="re-planning cadence in service minutes",
    )
    command.add_argument(
        "--speedup", type=float, default=60.0, metavar="X",
        help="service minutes per wall minute (60 = 1 wall second is 1 "
        "service minute)",
    )
    command.add_argument(
        "--seed", type=int, default=1234, help="workload / catalog seed"
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro-vod`` argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-vod",
        description=(
            "Reproduction of Leung, Lui & Golubchik (ICDE 1997): buffer and I/O "
            "resource pre-allocation for VOD batching and buffering."
        ),
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="increase log verbosity (repeatable: -v INFO, -vv DEBUG)",
    )
    parser.add_argument(
        "-q", "--quiet", action="count", default=0,
        help="decrease log verbosity (repeatable)",
    )
    parser.add_argument(
        "--backend", default=None, metavar="{" + ",".join(BACKENDS) + "}",
        help="numerics backend for model evaluation (default: numpy batched "
        "kernels, or the REPRO_BACKEND environment variable; 'scalar' forces "
        "the unbatched oracle)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_cmd = sub.add_parser("run", help="run one experiment")
    run_cmd.add_argument("experiment", choices=available_experiments())
    run_cmd.add_argument("--fast", action="store_true", help="reduced grid/horizon")
    run_cmd.add_argument("--csv", type=Path, default=None, help="export tables to DIR")
    run_cmd.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for parallelisable experiments "
        "(0 = all CPUs; output is identical for any worker count)",
    )
    _add_obs_outputs(run_cmd)

    hit_cmd = sub.add_parser("hit", help="evaluate P(hit) for one configuration")
    hit_cmd.add_argument("--length", type=float, required=True, help="movie length (min)")
    hit_cmd.add_argument("--streams", type=int, required=True, help="number of streams n")
    hit_cmd.add_argument("--buffer", type=float, required=True, help="buffer minutes B")
    hit_cmd.add_argument(
        "--duration",
        type=json.loads,
        default={"family": "gamma", "shape": 2, "scale": 4},
        help='duration spec as JSON, e.g. \'{"family": "exponential", "mean": 5}\'',
    )
    hit_cmd.add_argument("--p-ff", type=float, default=0.2)
    hit_cmd.add_argument("--p-rw", type=float, default=0.2)
    hit_cmd.add_argument("--p-pause", type=float, default=0.6)

    size_cmd = sub.add_parser("size", help="size one movie for (w, P*) targets")
    size_cmd.add_argument("--length", type=float, required=True)
    size_cmd.add_argument("--wait", type=float, required=True, help="max wait w (min)")
    size_cmd.add_argument("--p-star", type=float, default=0.5)
    size_cmd.add_argument(
        "--duration",
        type=json.loads,
        default={"family": "gamma", "shape": 2, "scale": 4},
        help="duration spec as JSON",
    )

    plan_cmd = sub.add_parser(
        "plan", help="multi-movie sizing from a JSON spec file"
    )
    plan_cmd.add_argument("spec", type=Path, help="path to the plan spec (JSON)")
    plan_cmd.add_argument(
        "--stream-budget", type=int, default=None, help="total stream cap n_s"
    )
    plan_cmd.add_argument(
        "--blocking-target", type=float, default=0.01,
        help="VCR denial-probability target for the reserve sizing",
    )

    fit_cmd = sub.add_parser("fit", help="fit VCR behaviour from a trace file")
    fit_cmd.add_argument("trace", type=Path, help="JSON-lines trace file")

    sim_cmd = sub.add_parser(
        "simulate", help="size from a spec, then validate on the full server"
    )
    sim_cmd.add_argument("spec", type=Path, help="path to the plan spec (JSON)")
    sim_cmd.add_argument("--arrival-rate", type=float, default=1.0,
                         help="total session arrivals per minute")
    sim_cmd.add_argument("--horizon", type=float, default=1500.0)
    sim_cmd.add_argument("--warmup", type=float, default=300.0)
    sim_cmd.add_argument("--seed", type=int, default=7)
    sim_cmd.add_argument("--mean-patience", type=float, default=None,
                         help="queued viewers renege after ~this many minutes")
    sim_cmd.add_argument("--headroom", type=int, default=None,
                         help="extra streams beyond Σn (default: the Erlang reserve)")
    _add_obs_outputs(sim_cmd)

    runtime_cmd = sub.add_parser(
        "runtime", help="replay a trace through the online control plane"
    )
    runtime_cmd.add_argument(
        "--trace", type=Path, required=True, help="JSON-lines trace file"
    )
    runtime_cmd.add_argument(
        "--tick", type=float, default=30.0, help="control period in minutes"
    )
    runtime_cmd.add_argument(
        "--wait", type=float, default=2.0, help="per-movie batching wait target w*"
    )
    runtime_cmd.add_argument("--p-star", type=float, default=0.5,
                             help="per-movie hit-probability target P*")
    runtime_cmd.add_argument(
        "--stream-budget", type=int, default=None, help="total stream cap n_s"
    )
    _add_obs_outputs(runtime_cmd)

    obs_cmd = sub.add_parser(
        "obs", help="inspect observability artifacts (traces, metrics)"
    )
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)
    obs_summarize = obs_sub.add_parser(
        "summarize", help="replay a structured trace into a run report"
    )
    obs_summarize.add_argument("trace", type=Path, help="JSONL trace file")
    obs_summarize.add_argument(
        "--buckets", type=int, default=8,
        help="time buckets for the stream-occupancy timeline",
    )
    obs_validate = obs_sub.add_parser(
        "validate", help="validate a structured trace against the event schema"
    )
    obs_validate.add_argument("trace", type=Path, help="JSONL trace file")
    obs_trace = obs_sub.add_parser(
        "trace", help="reconstruct one request's causal chain from a v4 trace"
    )
    obs_trace.add_argument("trace", type=Path, help="JSONL trace file")
    obs_trace.add_argument(
        "--request", required=True, metavar="TRACE_ID",
        help="the request's trace id (e.g. req-000042)",
    )
    obs_scrape = obs_sub.add_parser(
        "scrape", help="scrape a live admission service's metrics/health verbs"
    )
    obs_scrape.add_argument("--host", default="127.0.0.1", help="server address")
    obs_scrape.add_argument("--port", type=int, default=7733, help="server port")
    obs_scrape.add_argument(
        "--format", choices=("prometheus", "json"), default="prometheus",
        dest="scrape_format", help="exposition format for the metrics verb",
    )
    obs_scrape.add_argument(
        "--health", action="store_true",
        help="scrape the health verb instead of metrics",
    )
    obs_scrape.add_argument(
        "--out", type=Path, default=None, metavar="FILE",
        help="write the scraped body to FILE instead of stdout",
    )
    obs_scrape.add_argument(
        "--assert-monotonic", type=Path, default=None, metavar="PREV",
        help="diff against a previous Prometheus scrape file; exit 1 if any "
        "repro_* counter regressed or vanished",
    )

    faults_cmd = sub.add_parser(
        "faults", help="deterministic fault injection and graceful degradation"
    )
    faults_sub = faults_cmd.add_subparsers(dest="faults_command", required=True)
    faults_run = faults_sub.add_parser(
        "run", help="run the chaos test-bed server under a fault plan"
    )
    faults_run.add_argument(
        "plan", nargs="?", type=Path, default=None,
        help="fault-plan JSON file (omit to generate one from the flags below)",
    )
    faults_run.add_argument(
        "--seed", type=int, default=5, help="fault-plan seed when generating"
    )
    faults_run.add_argument(
        "--intensity", type=float, default=1.0,
        help="~faults per hour when generating a plan",
    )
    faults_run.add_argument(
        "--horizon", type=float, default=600.0, help="simulated minutes"
    )
    faults_run.add_argument(
        "--warmup", type=float, default=100.0,
        help="minutes excluded from the metrics window",
    )
    faults_run.add_argument(
        "--workload-seed", type=int, default=11, help="viewer-workload seed"
    )
    faults_run.add_argument(
        "--no-degrade", action="store_true",
        help="baseline arm: no shedding policies, faulted viewers are dropped",
    )
    faults_run.add_argument(
        "--dump-plan", type=Path, default=None, metavar="FILE",
        help="also write the effective plan JSON to FILE",
    )
    _add_obs_outputs(faults_run)

    serve_cmd = sub.add_parser(
        "serve", help="run the live asyncio admission service"
    )
    serve_cmd.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_cmd.add_argument(
        "--port", type=int, default=7733,
        help="TCP port (0 picks a free port and prints it)",
    )
    _add_service_deployment(serve_cmd)
    serve_cmd.add_argument(
        "--max-in-flight", type=int, default=1024, metavar="N",
        help="in-flight request cap; excess requests get 'backpressure'",
    )
    serve_cmd.add_argument(
        "--duration", type=float, default=None, metavar="SEC",
        help="serve for SEC wall seconds, then drain and exit (default: "
        "until SIGTERM/SIGINT)",
    )
    serve_cmd.add_argument(
        "--no-replan", action="store_true",
        help="disable the telemetry-driven capacity controller",
    )
    serve_cmd.add_argument(
        "--decision-log", type=Path, default=None, metavar="FILE",
        help="append every admission decision as one JSON line to FILE",
    )
    serve_cmd.add_argument(
        "--fault-drop-every", type=int, default=None, metavar="K",
        help="sever every K-th connection (deterministic fault injection)",
    )
    serve_cmd.add_argument(
        "--fault-stall-every", type=int, default=None, metavar="K",
        help="declare every K-th connection a slow client and close it",
    )
    serve_cmd.add_argument(
        "--fault-actuation-failures", type=int, default=0, metavar="N",
        help="fail the first N plan actuations (opens the circuit breaker)",
    )
    serve_cmd.add_argument(
        "--fault-capacity-at", type=float, default=None, metavar="MIN",
        help="shrink stream capacity at this service minute",
    )
    serve_cmd.add_argument(
        "--fault-capacity-fraction", type=float, default=0.5, metavar="F",
        help="surviving capacity fraction for --fault-capacity-at",
    )
    serve_cmd.add_argument(
        "--fault-capacity-recovery", type=float, default=None, metavar="MIN",
        help="restore capacity this many service minutes after the fault",
    )
    serve_cmd.add_argument(
        "--fault-latency-at", type=float, default=None, metavar="MIN",
        help="inject extra per-decision latency from this service minute",
    )
    serve_cmd.add_argument(
        "--fault-latency-seconds", type=float, default=1.0, metavar="SEC",
        help="injected seconds of engine time for --fault-latency-at",
    )
    serve_cmd.add_argument(
        "--fault-latency-recovery", type=float, default=None, metavar="MIN",
        help="clear the latency fault this many service minutes after onset",
    )
    serve_cmd.add_argument(
        "--slo-p99", type=float, default=0.5, metavar="SEC",
        help="p99 request-latency SLO threshold in seconds",
    )
    serve_cmd.add_argument(
        "--no-slo", action="store_true",
        help="disable burn-rate SLO monitoring (and SLO-armed shedding)",
    )
    _add_obs_outputs(serve_cmd)

    loadgen_cmd = sub.add_parser(
        "loadgen", help="drive an admission service from a seeded workload"
    )
    loadgen_cmd.add_argument(
        "--mode", choices=("wall", "virtual"), default="wall",
        help="wall: benchmark a running server over TCP; "
        "virtual: deterministic in-process run on a virtual clock",
    )
    loadgen_cmd.add_argument("--host", default="127.0.0.1", help="server address")
    loadgen_cmd.add_argument("--port", type=int, default=7733, help="server port")
    _add_service_deployment(loadgen_cmd)
    loadgen_cmd.add_argument(
        "--arrival-rate", type=float, default=2.0, metavar="PER_MIN",
        help="Poisson session arrival rate (sessions per service minute)",
    )
    loadgen_cmd.add_argument(
        "--horizon", type=float, default=120.0, metavar="MIN",
        help="workload horizon in service minutes",
    )
    loadgen_cmd.add_argument(
        "--connections", type=int, default=8, metavar="N",
        help="TCP connections to multiplex sessions over (wall mode)",
    )
    loadgen_cmd.add_argument(
        "--timeline-order", action="store_true",
        help="wall mode: replay in workload order instead of phasing all "
        "session starts first (lower peak concurrency)",
    )
    loadgen_cmd.add_argument(
        "--decision-log", type=Path, default=None, metavar="FILE",
        help="virtual mode: write the deterministic decision log to FILE",
    )
    loadgen_cmd.add_argument(
        "--json", type=Path, default=None, metavar="FILE", dest="json_out",
        help="write the load report as JSON to FILE",
    )
    _add_obs_outputs(loadgen_cmd)

    lint_cmd = sub.add_parser(
        "lint", help="run the domain-aware static analysis over a source tree"
    )
    lint_cmd.add_argument(
        "root", nargs="?", type=Path, default=Path("src"),
        help="source tree to scan (default: src)",
    )
    lint_cmd.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        dest="output_format",
        help="report format (json is the CI artifact shape; sarif is the "
        "SARIF 2.1.0 log code hosts ingest for inline annotations)",
    )
    lint_cmd.add_argument(
        "--baseline", type=Path, default=None, metavar="FILE",
        help="baseline file of tolerated findings (default: "
        "lint-baseline.json next to the scanned tree, when present)",
    )
    lint_cmd.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file (report the full finding set)",
    )
    lint_cmd.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline to tolerate exactly the current findings",
    )
    lint_cmd.add_argument(
        "--rules", type=str, default=None, metavar="ID[,ID...]",
        help="comma-separated rule ids to run (default: all)",
    )
    lint_cmd.add_argument(
        "--list-rules", action="store_true", help="list registered rules and exit"
    )
    return parser


def _cmd_list() -> int:
    for experiment_id in available_experiments():
        print(experiment_id)
    return 0


def _open_tracer(args: argparse.Namespace) -> TraceWriter | None:
    """A trace writer for ``--trace-out``, or ``None`` when not requested."""
    return TraceWriter(args.trace_out) if args.trace_out is not None else None


def _write_metrics(args: argparse.Namespace, registry: ObsRegistry | None) -> None:
    """Write the stable-tier Prometheus exposition for ``--metrics-out``."""
    if registry is not None and args.metrics_out is not None:
        args.metrics_out.write_text(registry.render_prometheus())
        print(f"wrote {args.metrics_out}")


def _cmd_run(args: argparse.Namespace) -> int:
    tracer = _open_tracer(args)
    registry = ObsRegistry() if args.metrics_out is not None else None
    try:
        result = run_experiment(
            args.experiment,
            fast=args.fast,
            workers=args.workers,
            tracer=tracer,
            registry=registry,
        )
    finally:
        if tracer is not None:
            tracer.close()
    print(result.render())
    if result.parallel_outcome is not None and args.workers != 1:
        print(f"parallel: {result.parallel_outcome.describe()}")
    if args.csv is not None:
        args.csv.mkdir(parents=True, exist_ok=True)
        for index, table in enumerate(result.tables):
            path = args.csv / f"{result.experiment_id}_{index}.csv"
            path.write_text(table.to_csv())
            print(f"wrote {path}")
    if args.trace_out is not None:
        print(f"wrote {args.trace_out}")
    _write_metrics(args, registry)
    return 0


def _cmd_hit(args: argparse.Namespace) -> int:
    mix = VCRMix(p_ff=args.p_ff, p_rw=args.p_rw, p_pause=args.p_pause)
    model = HitProbabilityModel(
        args.length, distribution_from_spec(args.duration), mix=mix
    )
    config = model.configuration(args.streams, args.buffer)
    breakdown = model.breakdown(config)
    print(config.describe())
    print(f"P(hit|FF)  = {breakdown.p_hit_ff:.4f}   (P(end) = {breakdown.p_end_ff:.4f})")
    print(f"P(hit|RW)  = {breakdown.p_hit_rw:.4f}")
    print(f"P(hit|PAU) = {breakdown.p_hit_pause:.4f}")
    print(f"P(hit)     = {breakdown.p_hit:.4f}   (mix {mix.p_ff}/{mix.p_rw}/{mix.p_pause})")
    return 0


def _cmd_size(args: argparse.Namespace) -> int:
    spec = MovieSizingSpec(
        name="movie",
        length=args.length,
        max_wait=args.wait,
        durations=distribution_from_spec(args.duration),
        p_star=args.p_star,
    )
    feasible = FeasibleSet(spec)
    best = feasible.best_point()
    print(
        f"l={args.length:g} w={args.wait:g} P*={args.p_star:g}: "
        f"n*={best.num_streams}, B*={best.buffer_minutes:.1f} min "
        f"(P(hit)={best.hit_probability:.4f}; "
        f"pure batching would need {spec.pure_batching_streams} streams)"
    )
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    """Multi-movie sizing from a declarative JSON spec.

    Spec format::

        {
          "movies": [
            {"name": "movie1", "length": 75, "wait": 0.1, "p_star": 0.5,
             "duration": {"family": "gamma", "shape": 2, "scale": 4},
             "arrival_rate": 0.4, "mean_think_time": 15,
             "mix": {"p_ff": 0.2, "p_rw": 0.2, "p_pause": 0.6}},
            ...
          ]
        }

    ``arrival_rate``/``mean_think_time``/``mix`` are optional; when
    ``arrival_rate`` is present the Erlang reserve for that movie is sized
    too.
    """
    from repro.sizing.planner import SystemSizer
    from repro.sizing.reservation import VCRLoadModel

    if not args.spec.exists():
        print(f"spec file not found: {args.spec}", file=sys.stderr)
        return 2
    try:
        spec_data = json.loads(args.spec.read_text())
    except json.JSONDecodeError as exc:
        print(f"invalid spec {args.spec}: {exc}", file=sys.stderr)
        return 2
    movies = spec_data.get("movies")
    if not movies:
        print("spec must contain a non-empty 'movies' list", file=sys.stderr)
        return 2
    specs = []
    extras = []
    for entry in movies:
        mix = VCRMix(**entry["mix"]) if "mix" in entry else VCRMix.paper_figure7d()
        specs.append(
            MovieSizingSpec(
                name=entry["name"],
                length=float(entry["length"]),
                max_wait=float(entry["wait"]),
                durations=distribution_from_spec(entry["duration"]),
                p_star=float(entry.get("p_star", 0.5)),
                mix=mix,
            )
        )
        extras.append(
            (entry.get("arrival_rate"), float(entry.get("mean_think_time", 15.0)))
        )
    sizer = SystemSizer(specs)
    report = sizer.solve(stream_budget=args.stream_budget)
    for line in report.summary_lines():
        print(line)

    total_reserve = 0
    for allocation, (arrival_rate, think) in zip(report.result.allocations, extras):
        if arrival_rate is None:
            continue
        feasible = next(
            fs for fs in sizer.feasible_sets if fs.spec.name == allocation.spec.name
        )
        load_model = VCRLoadModel(
            feasible.model,
            allocation.configuration(),
            viewer_arrival_rate=float(arrival_rate),
            mean_think_time=think,
        )
        plan = load_model.plan(blocking_target=args.blocking_target)
        total_reserve += plan.reserve_streams
        print(
            f"VCR reserve for {allocation.spec.name:<12}: {plan.reserve_streams:>4d} "
            f"streams (load {plan.offered_load:.1f} erl, blocking "
            f"{plan.achieved_blocking:.4f})"
        )
    if total_reserve:
        print(
            f"total provisioning: {report.result.total_streams} playback + "
            f"{total_reserve} reserve = "
            f"{report.result.total_streams + total_reserve} streams, "
            f"{report.result.total_buffer_minutes:.1f} buffer-minutes"
        )
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    from repro.workloads.analysis import analyze_trace
    from repro.workloads.events import Trace, TraceFormatError
    from repro.workloads.fitting import fit_behavior

    if not args.trace.exists():
        print(f"trace file not found: {args.trace}", file=sys.stderr)
        return 2
    try:
        trace = Trace.load(args.trace)
    except TraceFormatError as exc:
        print(f"invalid trace {args.trace}: {exc}", file=sys.stderr)
        return 2
    stats = analyze_trace(trace)
    print(stats.describe())
    if stats.interarrival is not None:
        print(f"estimated arrival rate : {stats.arrival_rate:.4f} sessions/min")
    if stats.mean_think_time is not None:
        print(f"estimated think time   : {stats.mean_think_time:.2f} min "
              "(censoring-corrected)")
    fitted = fit_behavior(trace)
    print(fitted.describe())
    return 0


def _parse_plan_spec(path: Path):
    """Shared spec parsing for ``plan`` and ``simulate``."""
    if not path.exists():
        raise ValueError(f"spec file not found: {path}")
    try:
        spec_data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid spec {path}: {exc}") from exc
    movies = spec_data.get("movies")
    if not movies:
        raise ValueError("spec must contain a non-empty 'movies' list")
    specs = []
    extras = []
    for entry in movies:
        mix = VCRMix(**entry["mix"]) if "mix" in entry else VCRMix.paper_figure7d()
        specs.append(
            MovieSizingSpec(
                name=entry["name"],
                length=float(entry["length"]),
                max_wait=float(entry["wait"]),
                durations=distribution_from_spec(entry["duration"]),
                p_star=float(entry.get("p_star", 0.5)),
                mix=mix,
            )
        )
        extras.append(entry)
    return specs, extras


def _cmd_simulate(args: argparse.Namespace) -> int:
    """Size from the spec, deploy on the simulated server, report outcomes."""
    from repro.sizing.planner import SystemSizer
    from repro.sizing.reservation import VCRLoadModel
    from repro.vod.buffer import BufferPool
    from repro.vod.movie import Movie, MovieCatalog
    from repro.vod.server import ServerWorkload, VODServer
    from repro.vod.vcr import VCRBehavior

    try:
        specs, entries = _parse_plan_spec(args.spec)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    sizer = SystemSizer(specs)
    report = sizer.solve()
    print("sized allocation:")
    for line in report.summary_lines():
        print("  " + line)

    # Catalog: popularity proportional to the spec's arrival shares (equal
    # split when unspecified).
    weights = [float(entry.get("popularity", 1.0)) for entry in entries]
    total_weight = sum(weights)
    movies = [
        Movie(index, spec.name, spec.length, popularity=weight / total_weight)
        for index, (spec, weight) in enumerate(zip(specs, weights))
    ]
    catalog = MovieCatalog(movies, popular_count=len(movies))
    allocation = report.result.as_configuration_map(
        {spec.name: index for index, spec in enumerate(specs)}
    )

    headroom = args.headroom
    if headroom is None:
        headroom = 0
        for index, spec in enumerate(specs):
            share = movies[index].popularity * args.arrival_rate
            load_model = VCRLoadModel(
                sizer.feasible_sets[index].model,
                allocation[index],
                viewer_arrival_rate=max(share, 1e-6),
            )
            headroom += load_model.plan(blocking_target=0.01).reserve_streams
        print(f"Erlang headroom for VCR service: {headroom} streams")

    first = specs[0]
    behavior = VCRBehavior(
        mix=first.mix,
        durations=(
            dict(first.durations)
            if isinstance(first.durations, dict)
            else {op: first.durations for op in VCROperation}
        ),
    )
    name_to_id = {spec.name: index for index, spec in enumerate(specs)}
    predicted_hits = {
        name_to_id[a.spec.name]: a.hit_probability
        for a in report.result.allocations
    }
    tracer = _open_tracer(args)
    try:
        server = VODServer(
            catalog,
            allocation,
            num_streams=report.result.total_streams + headroom,
            buffer_pool=BufferPool.for_minutes(report.result.total_buffer_minutes + 1.0),
            behavior=behavior,
            workload=ServerWorkload(
                arrival_rate=args.arrival_rate,
                horizon=args.horizon,
                warmup=args.warmup,
                seed=args.seed,
                mean_patience=args.mean_patience,
            ),
            tracer=tracer,
            predicted_hits=predicted_hits,
        )
        outcome = server.run()
    finally:
        if tracer is not None:
            tracer.close()
    print("\nsimulated outcome:")
    for line in outcome.summary_lines():
        print("  " + line)
    if args.trace_out is not None:
        print(f"wrote {args.trace_out}")
    if args.metrics_out is not None:
        from repro.obs.adapters import export_sim_metrics

        registry = ObsRegistry()
        export_sim_metrics(server.metrics, server.env.now, registry)
        _write_metrics(args, registry)
    return 0


def _cmd_runtime(args: argparse.Namespace) -> int:
    """Replay a trace through telemetry → re-fit → re-plan, tick by tick."""
    from repro.runtime.controller import CapacityController, ControllerPolicy, MovieSlot
    from repro.runtime.telemetry import TelemetryHub
    from repro.workloads.events import Trace, TraceFormatError

    if args.tick <= 0.0:
        print("--tick must be positive", file=sys.stderr)
        return 2
    if not args.trace.exists():
        print(f"trace file not found: {args.trace}", file=sys.stderr)
        return 2
    try:
        trace = Trace.load(args.trace)
    except TraceFormatError as exc:
        print(f"invalid trace {args.trace}: {exc}", file=sys.stderr)
        return 2
    sessions = sorted(trace.sessions, key=lambda s: s.arrival_minutes)
    if not sessions:
        print("trace contains no sessions", file=sys.stderr)
        return 2
    lengths: dict[int, float] = {}
    for session in sessions:
        lengths.setdefault(session.movie_id, session.movie_length)
    slots = [
        MovieSlot(
            movie_id=movie_id,
            name=f"movie{movie_id}",
            length=length,
            max_wait=min(args.wait, length),
            p_star=args.p_star,
        )
        for movie_id, length in sorted(lengths.items())
    ]
    hub = TelemetryHub()
    tracer = _open_tracer(args)
    controller = CapacityController(
        slots,
        hub,
        policy=ControllerPolicy(
            stream_budget=args.stream_budget, cooldown_minutes=args.tick
        ),
        tracer=tracer,
    )
    horizon = max(s.arrival_minutes + (s.ended_at_minutes or 0.0) for s in sessions)
    print(
        f"replaying {len(sessions)} sessions over {len(slots)} movies "
        f"({horizon:.0f} min horizon, tick {args.tick:g} min)"
    )
    try:
        if tracer is not None:
            tracer.emit("run_start", 0.0, label="runtime-replay")
        now, index = 0.0, 0
        while now < horizon:
            now = min(now + args.tick, horizon)
            while index < len(sessions) and sessions[index].arrival_minutes <= now:
                hub.ingest_session(sessions[index])
                index += 1
            delta = controller.tick(now)
            if delta is not None:
                print(f"[t={now:8.1f}] {delta.describe()}")
        if tracer is not None:
            tracer.emit("run_end", now, label="runtime-replay")
    finally:
        if tracer is not None:
            tracer.close()
    counters = controller.counters()
    print("control summary  : " + ", ".join(f"{k}={v}" for k, v in counters.items()))
    for movie_id, config in sorted(controller.current_allocation.items()):
        print(
            f"  movie {movie_id:<4d}: n={config.num_partitions}, "
            f"B={config.buffer_minutes:.1f} min"
        )
    for name, stats in controller.cache.stats().items():
        print(
            f"cache[{name}]: hits={stats.hits} misses={stats.misses} "
            f"hit_rate={stats.hit_rate:.2f}"
        )
    if args.trace_out is not None:
        print(f"wrote {args.trace_out}")
    if args.metrics_out is not None:
        from repro.obs.adapters import export_controller_counters

        registry = ObsRegistry()
        export_controller_counters(counters, registry)
        _write_metrics(args, registry)
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    """Inspect observability artifacts."""
    from repro.exceptions import TraceSchemaError
    from repro.obs.summarize import reconstruct_request, summarize_trace
    from repro.obs.trace import validate_trace_file

    if args.obs_command == "scrape":
        return _cmd_obs_scrape(args)
    if not args.trace.exists():
        print(f"trace file not found: {args.trace}", file=sys.stderr)
        return 2
    try:
        if args.obs_command == "validate":
            count = validate_trace_file(args.trace)
            print(f"{args.trace}: {count} events, schema OK")
            return 0
        if args.obs_command == "trace":
            chain = reconstruct_request(args.trace, args.request)
            if not chain.events:
                print(
                    f"no events carry trace_id {args.request!r} in {args.trace}",
                    file=sys.stderr,
                )
                return 2
            print(chain.render())
            return 0 if chain.complete else 1
        summary = summarize_trace(args.trace, timeline_buckets=args.buckets)
        print(summary.render())
        return 0
    except TraceSchemaError as exc:
        print(f"invalid trace {args.trace}: {exc}", file=sys.stderr)
        return 2


def _cmd_obs_scrape(args: argparse.Namespace) -> int:
    """Scrape a live service's metrics/health verb over the wire."""
    import asyncio

    from repro.exceptions import ObservabilityError, ProtocolError
    from repro.obs.scrape import monotonic_regressions, parse_exposition
    from repro.service.protocol import Request, decode_response, encode_request

    async def _scrape() -> str:
        reader, writer = await asyncio.open_connection(
            args.host, args.port, limit=1 << 20
        )
        try:
            if args.health:
                request = Request(request_id=0, kind="health")
            else:
                request = Request(
                    request_id=0, kind="metrics", format=args.scrape_format
                )
            writer.write((encode_request(request) + "\n").encode("utf-8"))
            await writer.drain()
            raw = await reader.readline()
        finally:
            writer.close()
        if not raw:
            raise ObservabilityError("server closed the connection mid-scrape")
        response = decode_response(raw.decode("utf-8"))
        if response.decision != "ok" or response.body is None:
            raise ObservabilityError(
                f"scrape refused: {response.reason} ({response.error or 'no body'})"
            )
        return response.body

    try:
        body = asyncio.run(_scrape())
    except (OSError, ProtocolError, ObservabilityError) as exc:
        print(f"scrape failed: {exc}", file=sys.stderr)
        return 2
    if args.out is not None:
        args.out.write_text(body + ("" if body.endswith("\n") else "\n"))
        print(f"wrote {args.out}")
    else:
        print(body)
    if args.assert_monotonic is not None:
        if args.health or args.scrape_format != "prometheus":
            print(
                "--assert-monotonic needs a prometheus metrics scrape",
                file=sys.stderr,
            )
            return 2
        try:
            previous = parse_exposition(args.assert_monotonic.read_text())
            current = parse_exposition(body)
        except (OSError, ObservabilityError) as exc:
            print(f"cannot diff scrapes: {exc}", file=sys.stderr)
            return 2
        regressions = monotonic_regressions(previous, current)
        if regressions:
            for regression in regressions:
                print(f"monotonicity violation: {regression}", file=sys.stderr)
            return 1
        print(f"monotonic vs {args.assert_monotonic}: OK")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    """Run the chaos test-bed server under a (loaded or generated) fault plan."""
    from repro.exceptions import FaultPlanError
    from repro.experiments.chaos import chaos_server
    from repro.faults import FaultPlan

    try:
        if args.plan is not None:
            plan = FaultPlan.load(args.plan)
        else:
            plan = FaultPlan.generate(
                seed=args.seed, horizon=args.horizon, intensity=args.intensity
            )
    except FaultPlanError as exc:
        print(f"invalid fault plan: {exc}", file=sys.stderr)
        return 2
    if args.dump_plan is not None:
        plan.dump(args.dump_plan)
        print(f"wrote {args.dump_plan}")
    tracer = _open_tracer(args)
    try:
        server = chaos_server(
            plan,
            degrade=not args.no_degrade,
            horizon=args.horizon,
            warmup=args.warmup,
            seed=args.workload_seed,
            tracer=tracer,
        )
        report = server.run()
    finally:
        if tracer is not None:
            tracer.close()
    arm = (
        "baseline (no degradation policies)"
        if args.no_degrade
        else "policy (shed_vcr -> widen_restart -> collapse_partition)"
    )
    print(f"fault plan               : {len(plan)} events (seed {plan.seed})")
    print(f"arm                      : {arm}")
    for line in report.summary_lines():
        print(line)
    if args.trace_out is not None:
        print(f"wrote {args.trace_out}")
    if args.metrics_out is not None:
        from repro.obs.adapters import export_sim_metrics

        registry = ObsRegistry()
        export_sim_metrics(server.metrics, server.env.now, registry)
        _write_metrics(args, registry)
    return 0


def _build_service_deployment(args: argparse.Namespace):
    """Resolve the shared deployment knobs into (catalog, plan, capacity,
    reserve); raises a typed error on inconsistent settings."""
    from repro.service.bootstrap import (
        capacity_for,
        default_catalog,
        plan_for,
        reserve_for,
    )

    catalog = default_catalog(args.movies, args.popular, seed=args.seed)
    plan = plan_for(catalog, args.wait)
    reserve = args.reserve if args.reserve is not None else reserve_for(plan)
    capacity = (
        args.capacity
        if args.capacity is not None
        else capacity_for(catalog, plan, reserve)
    )
    return catalog, plan, capacity, reserve


def _build_service_controller(args: argparse.Namespace, catalog, capacity, reserve, hub, tracer):
    """The capacity controller for a live deployment (None when disabled)."""
    from repro.runtime.controller import CapacityController, ControllerPolicy, MovieSlot

    slots = [
        MovieSlot(
            movie_id=movie.movie_id,
            name=movie.title,
            length=movie.length,
            max_wait=min(args.wait, movie.length),
            p_star=0.5,
        )
        for movie in catalog.popular
    ]
    policy = ControllerPolicy(
        stream_budget=max(1, capacity - reserve), cooldown_minutes=args.tick
    )
    return CapacityController(slots, hub, policy=policy, tracer=tracer)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the live admission service until SIGTERM/SIGINT or --duration."""
    import asyncio
    import signal

    from repro.exceptions import ReproError
    from repro.obs.catalog import catalog_registry
    from repro.obs.slo import SLOConfig
    from repro.service import AdmissionEngine, AdmissionService, ServiceFaultConfig, WallClock

    try:
        catalog, plan, capacity, reserve = _build_service_deployment(args)
        faults = ServiceFaultConfig(
            drop_every=args.fault_drop_every,
            stall_every=args.fault_stall_every,
            actuation_failures=args.fault_actuation_failures,
            capacity_fault_at=args.fault_capacity_at,
            capacity_fraction=args.fault_capacity_fraction,
            capacity_recovery=args.fault_capacity_recovery,
            latency_fault_at=args.fault_latency_at,
            latency_fault_seconds=args.fault_latency_seconds,
            latency_fault_recovery=args.fault_latency_recovery,
        )
        slo = (
            None
            if args.no_slo
            else SLOConfig(latency_threshold_seconds=args.slo_p99)
        )
        if args.max_in_flight < 1:
            raise ReproError(f"--max-in-flight must be >= 1, got {args.max_in_flight}")
        if args.duration is not None and args.duration <= 0.0:
            raise ReproError(f"--duration must be positive, got {args.duration}")
    except ReproError as exc:
        print(f"invalid service configuration: {exc}", file=sys.stderr)
        return 2
    tracer = _open_tracer(args)
    registry = catalog_registry()
    decision_log = (
        args.decision_log.open("w") if args.decision_log is not None else None
    )
    try:
        engine = AdmissionEngine(
            catalog,
            plan,
            capacity,
            reserve_streams=reserve,
            clock=WallClock(speedup=args.speedup),
            tracer=tracer,
            registry=registry,
            decision_log=decision_log,
            tick_minutes=args.tick,
            faults=faults,
            slo=slo,
        )
        if not args.no_replan:
            engine.attach_controller(
                _build_service_controller(
                    args, catalog, capacity, reserve, engine.hub, tracer
                )
            )
        service = AdmissionService(
            engine,
            host=args.host,
            port=args.port,
            max_in_flight=args.max_in_flight,
            registry=registry,
            tracer=tracer,
        )

        async def _serve() -> int:
            await service.start()
            if tracer is not None:
                tracer.emit("run_start", 0.0, label="serve")
            print(f"listening on {args.host}:{service.port}", flush=True)
            stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(signum, stop.set)
            if args.duration is not None:
                loop.call_later(args.duration, stop.set)
            await stop.wait()
            closed = await service.shutdown()
            if tracer is not None:
                tracer.emit("run_end", engine.now, label="serve")
            print(
                f"drained: {closed} sessions closed, "
                f"{service.requests_served} requests served, "
                f"peak open {engine.registry.peak_open}"
            )
            return closed

        asyncio.run(_serve())
    finally:
        if decision_log is not None:
            decision_log.close()
        if tracer is not None:
            tracer.close()
    stats = engine.stats
    print(
        "decisions        : "
        f"admit={stats.admitted} batch={stats.batched} reject={stats.rejected} "
        f"vcr_admit={stats.vcr_admitted} vcr_deny={stats.vcr_denied} "
        f"hit={stats.resume_hits} miss={stats.resume_misses} "
        f"closed={stats.closed} errors={stats.errors}"
    )
    if service.limiter.rejected:
        print(f"backpressure     : {service.limiter.rejected} rejects")
    if args.trace_out is not None:
        print(f"wrote {args.trace_out}")
    _write_metrics(args, registry)
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    """Drive a service: wall-clock benchmark or deterministic virtual run."""
    import asyncio

    from repro.exceptions import ReproError
    from repro.obs.catalog import catalog_registry
    from repro.service import AdmissionEngine, VirtualClock, run_virtual, run_wall
    from repro.service.bootstrap import workload_for

    try:
        catalog, plan, capacity, reserve = _build_service_deployment(args)
        if args.arrival_rate <= 0.0:
            raise ReproError(
                f"--arrival-rate must be positive, got {args.arrival_rate}"
            )
        if args.horizon <= 0.0:
            raise ReproError(f"--horizon must be positive, got {args.horizon}")
        trace = workload_for(catalog, args.arrival_rate, args.horizon, args.seed)
    except ReproError as exc:
        print(f"invalid loadgen configuration: {exc}", file=sys.stderr)
        return 2
    if not trace.sessions:
        print("workload horizon produced no sessions", file=sys.stderr)
        return 2
    tracer = _open_tracer(args)
    registry = catalog_registry()
    decision_log = (
        args.decision_log.open("w") if args.decision_log is not None else None
    )
    try:
        if args.mode == "virtual":
            engine = AdmissionEngine(
                catalog,
                plan,
                capacity,
                reserve_streams=reserve,
                clock=VirtualClock(),
                tracer=tracer,
                registry=registry,
                decision_log=decision_log,
                tick_minutes=args.tick,
            )
            if tracer is not None:
                tracer.emit("run_start", 0.0, label="loadgen-virtual")
            report = run_virtual(engine, trace)
            engine.drain()
            if tracer is not None:
                tracer.emit("run_end", engine.now, label="loadgen-virtual")
        else:
            try:
                report = asyncio.run(
                    run_wall(
                        args.host,
                        args.port,
                        trace,
                        connections=args.connections,
                        phased=not args.timeline_order,
                    )
                )
            except ReproError as exc:
                print(f"loadgen failed: {exc}", file=sys.stderr)
                return 1
    finally:
        if decision_log is not None:
            decision_log.close()
        if tracer is not None:
            tracer.close()
    summary = report.to_dict()
    print(json.dumps(summary, indent=2, sort_keys=True))
    if args.json_out is not None:
        args.json_out.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json_out}")
    if args.trace_out is not None:
        print(f"wrote {args.trace_out}")
    _write_metrics(args, registry)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the static-analysis pass; exit 0 clean, 2 findings."""
    from repro.analysis import Baseline, available_rules, run_lint

    if args.list_rules:
        for rule_id, description in available_rules():
            print(f"{rule_id:26s} {description}")
        return 0

    baseline_path = args.baseline
    if baseline_path is None:
        default = args.root / ".." / "lint-baseline.json"
        candidate = default.resolve()
        if candidate.exists():
            baseline_path = candidate
    rule_ids = None
    if args.rules is not None:
        rule_ids = [part.strip() for part in args.rules.split(",") if part.strip()]
        if not rule_ids:
            # An effectively-empty selection (e.g. --rules ",") used to run
            # zero rules and exit 0 — a silent green that checked nothing.
            print(
                f"lint: --rules {args.rules!r} selects no rules; "
                f"see --list-rules",
                file=sys.stderr,
            )
            return 2
        from repro.analysis.base import RULE_FACTORIES

        unknown = [rule_id for rule_id in rule_ids if rule_id not in RULE_FACTORIES]
        if unknown:
            print(
                f"lint: unknown rule id(s): {', '.join(unknown)}; "
                f"see --list-rules",
                file=sys.stderr,
            )
            return 2

    try:
        baseline = (
            None
            if args.no_baseline or baseline_path is None
            else Baseline.load(baseline_path)
        )
        report = run_lint(args.root, rule_ids=rule_ids, baseline=baseline)
    except ConfigurationError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2

    if args.update_baseline:
        target = baseline_path or (args.root / ".." / "lint-baseline.json").resolve()
        # Tolerate exactly what fires today: new findings plus the surviving
        # baselined ones (stale entries drop out — the ratchet only shrinks).
        current = report.findings + report.suppressed_baseline
        Baseline.from_findings(current).save(target)
        print(f"wrote {target} ({len(current)} suppression(s))")
        return 0

    if args.output_format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    elif args.output_format == "sarif":
        from repro.analysis.sarif import render_sarif

        print(json.dumps(render_sarif(report), indent=2, sort_keys=True))
    else:
        print(report.render_text())
    return report.exit_code


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    configure_logging(args.verbose, args.quiet)
    try:
        if args.backend is not None:
            set_backend(args.backend)
        active_backend()
    except ConfigurationError as exc:
        print(f"repro-vod: {exc}", file=sys.stderr)
        return 2
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "hit":
        return _cmd_hit(args)
    if args.command == "size":
        return _cmd_size(args)
    if args.command == "plan":
        return _cmd_plan(args)
    if args.command == "fit":
        return _cmd_fit(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "runtime":
        return _cmd_runtime(args)
    if args.command == "obs":
        return _cmd_obs(args)
    if args.command == "faults":
        return _cmd_faults(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "loadgen":
        return _cmd_loadgen(args)
    if args.command == "lint":
        return _cmd_lint(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
