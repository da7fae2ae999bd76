"""Scalar-vs-batched equivalence: every backend must agree bit for bit.

The batched (numpy) kernels are required to be
*byte-identical* to the scalar oracle — not approximately equal.  The
design restricts vectorisation to exactly-rounded IEEE-754 operations
(+, -, *, /, comparisons) and routes every transcendental through the same
``math.*`` calls the scalar code makes, so any difference at all is a bug.
Accordingly every assertion here is ``==`` on floats, never ``approx``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import hitmodel, hitsets
from repro.core.hitmodel import HitProbabilityModel, VCRMix
from repro.core.hitsets import CdfTransform
from repro.core.vcrop import VCROperation
from repro.distributions import (
    DurationDistribution,
    ExponentialDuration,
    GammaDuration,
    LognormalDuration,
    UniformDuration,
    WeibullDuration,
    distribution_from_spec,
    truncate,
)
from repro.distributions import gamma as gamma_module
from repro.numerics.backend import BACKENDS, use_backend
from repro.sizing.feasible import FeasibleSet, MovieSizingSpec

#: Every backend that evaluates through the batch kernels.
BATCHED = tuple(b for b in BACKENDS if b != "scalar")


def _model(length, dist, mix=None, include_end_hit=True):
    return HitProbabilityModel(length, dist, mix=mix, include_end_hit=include_end_hit)


def _grid(model, length, count=7):
    """A small (n, B) grid along and around the ``B = l − n·w`` line."""
    configs = []
    for i in range(1, count + 1):
        n = 1 + 3 * i
        for fraction in (0.0, 0.35, 1.0):
            configs.append(model.configuration(n, length * fraction))
    return configs


def _distribution(kind, a, b):
    if kind == "exp":
        return ExponentialDuration(a)
    return GammaDuration(shape=a, scale=b)


class TestBackendsAgreeBitwise:
    @settings(max_examples=60, deadline=None)
    @given(
        length=st.floats(30.0, 300.0),
        n=st.integers(1, 60),
        fraction=st.floats(0.0, 1.0),
        kind=st.sampled_from(["exp", "gamma"]),
        a=st.floats(0.5, 40.0),
        b=st.floats(0.5, 20.0),
    )
    def test_hit_probability_across_backends(self, length, n, fraction, kind, a, b):
        dist = _distribution(kind, a, b)
        values = {}
        breakdowns = {}
        for backend in BACKENDS:
            with use_backend(backend):
                model = _model(length, dist)
                config = model.configuration(n, length * fraction)
                values[backend] = model.hit_probability(config)
                breakdowns[backend] = model.breakdown(config)
        assert values["numpy"] == values["scalar"]
        assert breakdowns["numpy"] == breakdowns["scalar"]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kind,a,b", [("exp", 10.0, 0.0), ("gamma", 2.0, 5.0)])
    def test_batch_equals_loop_of_scalars(self, backend, kind, a, b):
        dist = _distribution(kind, a, b)
        length = 120.0
        with use_backend("scalar"):
            model = _model(length, dist)
            configs = _grid(model, length)
            oracle = [model.hit_probability(c) for c in configs]
        with use_backend(backend):
            model = _model(length, dist)
            configs = _grid(model, length)
            batch = model.hit_probability_batch(configs)
            singles = [model.hit_probability(c) for c in configs]
        assert batch == oracle
        assert singles == oracle

    @pytest.mark.parametrize("backend", BATCHED)
    def test_per_operation_batch_matches_scalar(self, backend):
        length = 120.0
        dist = GammaDuration.paper_figure7()
        with use_backend("scalar"):
            model = _model(length, dist)
            configs = _grid(model, length)
            oracle = {
                op: [model.hit_probability_for(op, c) for c in configs]
                for op in VCROperation
            }
        with use_backend(backend):
            model = _model(length, dist)
            configs = _grid(model, length)
            for op in VCROperation:
                assert model.hit_probability_for_batch(op, configs) == oracle[op]

    @pytest.mark.parametrize("backend", BATCHED)
    @pytest.mark.parametrize(
        "n,fraction,include_end_hit",
        [
            (1, 0.5, True),       # single partition: spacing = l
            (1, 1.0, True),       # n_max == 1 with a full buffer
            (5, 0.0, True),       # B = 0: pure batching, span = 0
            (5, 0.0, False),      # ... and without the end-hit term
            (60, 1.0, True),      # dense partitions, maximal span
            (3, 1e-9, True),      # vanishing buffer: near-empty hit sets
        ],
    )
    def test_degenerate_configurations(self, backend, n, fraction, include_end_hit):
        length = 120.0
        dist = ExponentialDuration(10.0)
        with use_backend("scalar"):
            model = _model(length, dist, include_end_hit=include_end_hit)
            config = model.configuration(n, length * fraction)
            oracle = model.breakdown(config)
        with use_backend(backend):
            model = _model(length, dist, include_end_hit=include_end_hit)
            config = model.configuration(n, length * fraction)
            assert model.breakdown(config) == oracle
            assert model.breakdown_batch([config]) == [oracle]

    @pytest.mark.parametrize("backend", BATCHED)
    def test_single_operation_mixes(self, backend):
        length = 90.0
        dist = GammaDuration(shape=1.5, scale=8.0)
        for op in VCROperation:
            mix = VCRMix.only(op)
            with use_backend("scalar"):
                model = _model(length, dist, mix=mix)
                configs = _grid(model, length, count=4)
                oracle = model.hit_probability_batch(configs)
            with use_backend(backend):
                model = _model(length, dist, mix=mix)
                configs = _grid(model, length, count=4)
                assert model.hit_probability_batch(configs) == oracle


class TestSizingLayerAgrees:
    def _spec(self, max_wait=2.0):
        return MovieSizingSpec(
            name="movie",
            length=120.0,
            max_wait=max_wait,
            durations=GammaDuration.paper_figure7(),
            p_star=0.5,
        )

    @pytest.mark.parametrize("backend", BATCHED)
    def test_feasible_set_frontier(self, backend):
        with use_backend("scalar"):
            oracle_set = FeasibleSet(self._spec())
            oracle_max = oracle_set.max_streams()
            oracle = [p.hit_probability for p in oracle_set.curve(range(1, 40, 3))]
        with use_backend(backend):
            fs = FeasibleSet(self._spec())
            assert fs.max_streams() == oracle_max
            assert [p.hit_probability for p in fs.curve(range(1, 40, 3))] == oracle

    @pytest.mark.parametrize("backend", BATCHED)
    def test_n_max_one_frontier(self, backend):
        # A wait target so lax that a single stream already meets p*.
        spec = self._spec(max_wait=100.0)
        with use_backend("scalar"):
            oracle = FeasibleSet(spec).max_streams()
        with use_backend(backend):
            assert FeasibleSet(spec).max_streams() == oracle

    def test_points_batch_equals_pointwise(self):
        ns = [1, 4, 9, 16, 25]
        batch_set = FeasibleSet(self._spec())
        point_set = FeasibleSet(self._spec())
        batched = batch_set.points_batch(ns)
        pointwise = [point_set.point(n) for n in ns]
        assert batched == pointwise


def _scalar_bytes(dist, xs):
    """The scalar CDF over ``xs`` as raw float64 bytes, or the error it raises."""
    try:
        return np.asarray([dist.cdf(float(x)) for x in xs], dtype=float).tobytes()
    except OverflowError as exc:
        return type(exc)


def _batch_bytes(dist, xs):
    try:
        out = dist.cdf_batch(np.asarray(xs, dtype=float))
    except OverflowError as exc:
        return type(exc)
    assert isinstance(out, np.ndarray)
    return out.tobytes()


#: Points every family must get right: the origin, negatives, subnormals,
#: values at the edge of the float range and infinities.
_EDGE_POINTS = [
    0.0, -0.0, -1.0, -np.inf, 5e-324, 2.2e-308, 1e-300, 1e-12,
    1e300, 1.7976931348623157e308, np.inf,
]

_ARRAYS = st.lists(
    st.one_of(st.floats(-10.0, 500.0), st.floats(allow_nan=False)),
    min_size=0,
    max_size=40,
)


class TestDistributionBatchKernels:
    @pytest.mark.parametrize(
        "dist",
        [
            ExponentialDuration(10.0),
            GammaDuration(shape=2.0, scale=5.0),
            GammaDuration(shape=8.5, scale=1.5),
            LognormalDuration(mu=1.5, sigma=0.9),
            UniformDuration(2.0, 30.0),
            WeibullDuration(shape=0.7, scale=10.0),
            WeibullDuration(shape=2.5, scale=10.0),
        ],
        ids=lambda d: d.describe(),
    )
    def test_cdf_batch_list_and_ndarray_match_scalar(self, dist):
        xs = [-1.0, 0.0, 1e-12, 0.5, 3.7, 12.0, 55.0, 119.0, 200.0]
        scalar = [dist.cdf(x) for x in xs]
        assert dist.cdf_batch(xs).tolist() == scalar
        out = dist.cdf_batch(np.asarray(xs, dtype=float))
        assert isinstance(out, np.ndarray)
        assert out.tolist() == scalar

    def test_truncated_cdf_batch_paths_match(self):
        dist = truncate(ExponentialDuration(30.0), 120.0)
        xs = [-5.0, 0.0, 1.0, 60.0, 119.9999, 120.0, 500.0]
        scalar = [dist.cdf(x) for x in xs]
        assert dist.cdf_batch(xs).tolist() == scalar
        assert dist.cdf_batch(np.asarray(xs, dtype=float)).tolist() == scalar

    @settings(max_examples=40, deadline=None)
    @given(
        xs=st.lists(st.floats(-10.0, 400.0), min_size=1, max_size=30),
        mean=st.floats(0.5, 60.0),
    )
    def test_exponential_cdf_batch_property(self, xs, mean):
        dist = ExponentialDuration(mean)
        scalar = [dist.cdf(x) for x in xs]
        assert dist.cdf_batch(xs).tolist() == scalar
        assert dist.cdf_batch(np.asarray(xs, dtype=float)).tolist() == scalar

    @settings(max_examples=60, deadline=None)
    @given(xs=_ARRAYS, mu=st.floats(-3.0, 6.0), sigma=st.floats(0.05, 3.0))
    def test_lognormal_cdf_batch_bytes(self, xs, mu, sigma):
        dist = LognormalDuration(mu=mu, sigma=sigma)
        points = xs + _EDGE_POINTS
        assert _batch_bytes(dist, points) == _scalar_bytes(dist, points)

    @settings(max_examples=60, deadline=None)
    @given(xs=_ARRAYS, lo=st.floats(0.0, 50.0), width=st.floats(1e-3, 200.0))
    def test_uniform_cdf_batch_bytes(self, xs, lo, width):
        dist = UniformDuration(lo, lo + width)
        points = xs + _EDGE_POINTS + [dist.lo, dist.hi, np.nextafter(dist.hi, 0.0)]
        assert _batch_bytes(dist, points) == _scalar_bytes(dist, points)

    @settings(max_examples=60, deadline=None)
    @given(xs=_ARRAYS, shape=st.floats(0.2, 5.0), scale=st.floats(0.1, 100.0))
    def test_weibull_cdf_batch_bytes(self, xs, shape, scale):
        dist = WeibullDuration(shape=shape, scale=scale)
        # A huge x overflows ``(x/scale) ** shape`` for shape > 1: the batch
        # must then raise exactly as the scalar does.  The random points are
        # also checked on their own so such an edge point cannot hide them.
        for points in (xs, _EDGE_POINTS, xs + _EDGE_POINTS):
            assert _batch_bytes(dist, points) == _scalar_bytes(dist, points)


#: One spec per family :func:`distribution_from_spec` knows.
_FAMILY_SPECS = [
    {"family": "exponential", "mean": 7.0},
    {"family": "gamma", "shape": 2.0, "scale": 4.0},
    {"family": "uniform", "lo": 1.0, "hi": 40.0},
    {"family": "deterministic", "value": 12.5},
    {"family": "lognormal", "mean": 6.0, "cv": 1.3},
    {"family": "weibull", "shape": 0.8, "scale": 9.0},
    {"family": "empirical", "samples": [0.5, 2.0, 3.0, 9.5, 30.0, 31.0]},
    {
        "family": "mixture",
        "components": [
            {"family": "exponential", "mean": 3.0},
            {"family": "gamma", "shape": 3.0, "scale": 5.0},
        ],
        "weights": [0.3, 0.7],
    },
]


class TestCdfTransformGrid:
    @pytest.mark.parametrize("spec", _FAMILY_SPECS, ids=lambda s: s["family"])
    @settings(max_examples=8, deadline=None)
    # Movie lengths past every spec's bounded support, so each truncation
    # keeps some mass.
    @given(length=st.floats(45.0, 300.0), truncated=st.booleans())
    def test_grid_bytes_match_scalar(self, spec, length, truncated):
        dist = distribution_from_spec(spec)
        if truncated:
            dist = truncate(dist, length)
        with use_backend("scalar"):
            oracle = CdfTransform(dist, length)
        for backend in BATCHED:
            with use_backend(backend):
                batched = CdfTransform(dist, length)
            assert batched._fs.tobytes() == oracle._fs.tobytes()
            assert batched._gs.tobytes() == oracle._gs.tobytes()


class TestScalarOracleIndependence:
    """Under ``scalar`` the model path runs no batch kernel at all."""

    def _instrument(self, monkeypatch):
        calls: list[str] = []

        def spy(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return wrapper

        families = [DurationDistribution]
        while families:
            cls = families.pop()
            families.extend(cls.__subclasses__())
            if "cdf_batch" in vars(cls):
                monkeypatch.setattr(
                    cls, "cdf_batch", spy(f"{cls.__name__}.cdf_batch", vars(cls)["cdf_batch"])
                )
        for method in ("F_many", "G_many", "H_many"):
            monkeypatch.setattr(
                CdfTransform, method, spy(method, getattr(CdfTransform, method))
            )
        for module, name in (
            (hitsets, "_ff_args"),
            (hitsets, "_rw_args"),
            (hitsets, "_pause_args"),
            (hitmodel, "hit_probability_batch"),
            (gamma_module, "regularized_lower_gamma_many"),
        ):
            monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
        return calls

    def _exercise(self):
        specs = [
            MovieSizingSpec("gamma", 90.0, 1.0, GammaDuration.paper_figure7()),
            MovieSizingSpec("lognormal", 75.0, 0.5, LognormalDuration.from_mean_cv(5.0, 1.2)),
            MovieSizingSpec("weibull", 60.0, 0.5, WeibullDuration.from_mean(4.0, 0.8)),
            MovieSizingSpec("uniform", 60.0, 0.5, UniformDuration(0.0, 20.0)),
            MovieSizingSpec("exp", 60.0, 0.5, ExponentialDuration(5.0)),
        ]
        values = []
        for spec in specs:
            feasible = FeasibleSet(spec)
            values.append(feasible.max_streams())
            values.extend(p.hit_probability for p in feasible.curve(range(1, 30, 4)))
            model = spec.build_model()
            config = model.configuration(6, spec.length / 3.0)
            values.append(model.breakdown(config))
            values.extend(model.hit_probability_batch([config]))
        return values

    def test_scalar_backend_runs_no_batch_kernel(self, monkeypatch):
        calls = self._instrument(monkeypatch)
        with use_backend("scalar"):
            oracle = self._exercise()
        assert calls == []
        # The instrumentation does see the kernels when batching is on.
        with use_backend("numpy"):
            batched = self._exercise()
        assert batched == oracle
        assert {"H_many", "F_many", "_ff_args", "TruncatedDuration.cdf_batch"} <= set(calls)
