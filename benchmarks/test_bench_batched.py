"""Batched-vs-scalar model evaluation: the vectorisation acceptance gate.

One grid sweep per Example-1 movie — the exact hot path behind
``test_bench_figure8`` and ``test_bench_sizing`` — evaluated twice: through
the scalar oracle and through the numpy batched backend.  The two value
vectors must agree **byte for byte** (the batched kernels are exact
re-associations of the scalar arithmetic, not approximations), and the
batched backend must clear the speedup floor:
10x locally, relaxed to 5x in CI via ``BATCH_SPEEDUP_FLOOR`` because shared
runners time noisily.  The measured ladder lands in a JSON artifact
(``BATCH_BENCH_JSON``) that CI archives next to the service latency ladder.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from time import perf_counter

from repro.distributions import ExponentialDuration, GammaDuration
from repro.numerics.backend import use_backend
from repro.sizing.feasible import MovieSizingSpec

#: Where the speedup payload lands (CI uploads it as an artifact).
TIMING_PATH = Path(os.environ.get("BATCH_BENCH_JSON", "batched_speedup.json"))
#: Minimum acceptable speedup of the numpy backend over scalar.
SPEEDUP_FLOOR = float(os.environ.get("BATCH_SPEEDUP_FLOOR", "10.0"))

_SPECS = [
    MovieSizingSpec("movie1", 75.0, 0.1, GammaDuration(2.0, 4.0)),
    MovieSizingSpec("movie2", 60.0, 0.5, ExponentialDuration(5.0)),
    MovieSizingSpec("movie3", 90.0, 0.25, ExponentialDuration(2.0)),
]

#: Stream counts per movie; with three buffer levels each this is a
#: 300-configuration grid — one Figure-8 panel's worth of evaluations.
_STREAM_COUNTS = range(1, 101)
_BUFFER_FRACTIONS = (0.0, 0.5, 1.0)


def _grid(model, length):
    return [
        model.configuration(n, length * fraction)
        for n in _STREAM_COUNTS
        for fraction in _BUFFER_FRACTIONS
    ]


def _timed_sweep(spec, backend):
    """(values, seconds) for one movie's grid under one backend.

    Model construction (truncation, CDF transforms) is excluded: it is
    covered by the model cache benchmarks.  A small warmup batch absorbs
    one-time costs.
    """
    with use_backend(backend):
        model = spec.build_model()
        configs = _grid(model, spec.length)
        model.hit_probability_batch(configs[:6])  # warmup
        start = perf_counter()
        values = model.hit_probability_batch(configs)
        elapsed = perf_counter() - start
    return values, elapsed


def test_batched_speedup_and_equivalence():
    """Acceptance: batched evaluation is >= SPEEDUP_FLOOR x scalar, and the
    scalar/numpy value vectors are byte-identical per movie."""
    movies = {}
    totals = {"scalar": 0.0, "numpy": 0.0}
    for spec in _SPECS:
        scalar_values, scalar_s = _timed_sweep(spec, "scalar")
        numpy_values, numpy_s = _timed_sweep(spec, "numpy")
        assert numpy_values == scalar_values, spec.name
        speedup_numpy = scalar_s / numpy_s
        totals["scalar"] += scalar_s
        totals["numpy"] += numpy_s
        movies[spec.name] = {
            "grid_points": len(scalar_values),
            "scalar_s": round(scalar_s, 6),
            "numpy_s": round(numpy_s, 6),
            "speedup_numpy": round(speedup_numpy, 2),
            "byte_identical": True,
        }
        print(
            f"{spec.name}: scalar {scalar_s:.3f}s  "
            f"numpy {numpy_s:.3f}s ({speedup_numpy:.1f}x)"
        )

    # The gate matches the pipeline benchmarks (figure 8 / sizing sweep all
    # three movies back to back), so it is the aggregate ratio that must
    # clear the floor; per-movie ratios are reported for diagnosis.
    aggregate_numpy = totals["scalar"] / totals["numpy"]
    payload = {
        "benchmark": "batched_model_evaluation",
        "floor": SPEEDUP_FLOOR,
        "aggregate_speedup_numpy": round(aggregate_numpy, 2),
        "movies": movies,
    }
    TIMING_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"aggregate: numpy {aggregate_numpy:.1f}x  (floor {SPEEDUP_FLOOR:.0f}x)")

    assert aggregate_numpy >= SPEEDUP_FLOOR, (
        f"numpy backend speedup {aggregate_numpy:.1f}x below the "
        f"{SPEEDUP_FLOOR:.0f}x floor; see {TIMING_PATH}"
    )
