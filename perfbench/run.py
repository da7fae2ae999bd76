#!/usr/bin/env python3
"""Run one benchmark workload for one seed and print its metrics.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The package under ``src/`` is imported in
place; nothing is installed.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (every
end-to-end metric of ``BENCHMARK.json`` with ``--trace 0``, every per-layer
metric with ``--trace 1``).  The line before it is the environment
fingerprint.  A failed correctness check exits 1; a checkout without the
sources exits 2 and prints no result.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

from calib import HostSpeed

#: Calibration slices of this process (see ``calib.py``); the first burst
#: runs before any ``repro`` import.
SPEED = HostSpeed()
SPEED.burst()
#: Set-up time of in-process workloads is measured from here.
STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from helpers import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("serve", "decide", "plan", "simulate")
#: Extra fresh-process set-ups per run of an in-process workload (every
#: workload but ``serve``); with the run's own set-up, ``setup_s`` is the
#: median of these.
SETUP_PROBES = 2
#: Scratch space inside the checkout (listed in .gitignore).
OUT_DIR = ROOT / ".perfbench_out"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, print its set-up time, exit")
    return parser.parse_args(argv)


def source_digest() -> str:
    """sha256 over the package sources, so a result names the code it ran."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint() -> dict:
    import numpy

    from repro.numerics.backend import active_backend

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit,
        "source_sha256": source_digest(),
        "backend": active_backend(),
    }


def scaled_setup() -> float:
    """Seconds from ``STARTED`` to now, scaled to the reference host by the
    slices run just before and just after."""
    ended = time.perf_counter()
    SPEED.burst()
    return SPEED.measure(STARTED, ended)[1]


def probe_setup(args: argparse.Namespace) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--setup-only"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    # The default numerics backend is part of what is measured.
    os.environ.pop("REPRO_BACKEND", None)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)
    workload = importlib.import_module("wl_" + args.workload)

    hook = getattr(workload, "hook", None)
    if hook is not None and not args.trace:
        hook(SPEED)
    if args.setup_only:
        workload.setup(args.seed, OUT_DIR)
        print(json.dumps({"setup_s": scaled_setup()}))
        return 0

    if args.workload != "serve":
        state = workload.setup(args.seed, OUT_DIR)
        own_setup = scaled_setup()
        outcome = workload.run(state, args.seconds, bool(args.trace), OUT_DIR, SPEED)
        if not args.trace:
            outcome.setup_samples.append(own_setup)
            outcome.setup_samples.extend(
                probe_setup(args) for _ in range(SETUP_PROBES)
            )
    else:
        outcome = workload.run(args.seed, args.seconds, bool(args.trace), OUT_DIR)

    if args.trace:
        outcome.layers.setdefault("host.slice_ms", SPEED.median_slice_s() * 1e3)
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        measured = outcome.layers
    else:
        measured = dict(outcome.metrics, setup_s=median(outcome.setup_samples))
    unknown = sorted(set(measured) - {m["name"] for m in section})
    if unknown:
        raise KeyError(f"{args.workload} reports undeclared metrics {unknown}")
    missing = [m["name"] for m in section if m["name"] not in measured]
    if missing and not args.trace:
        raise KeyError(f"{args.workload} does not measure {missing}")
    # A layer the workload never calls reports 0 (the prediction "no change").
    metrics = {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]}
               for m in section}
    result = {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, fingerprint=fingerprint(),
                  failures=outcome.failures, notes=outcome.notes)
    (OUT_DIR / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    for failure in outcome.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    for key, value in sorted(outcome.notes.items()):
        print(f"note {key}: {value}")
    print("fingerprint " + json.dumps(record["fingerprint"], sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
