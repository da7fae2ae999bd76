"""The interval engine: exact hit-duration sets and their probabilities.

Section 3 of the paper reduces every resume outcome to geometry.  Fix a
viewer at movie position ``V_c`` whose partition's leading (first possible)
viewer is at ``V_f = V_c + d`` with in-partition offset ``d in [0, B/n]``.
With the Eq. (1) catch-up factors ``alpha`` (FF) and ``gamma`` (RW), the set
of operation durations ``x`` that end in a hit is a finite union of closed
intervals:

* **FF** — own partition ``[0, alpha*d]``; ``i``-th partition ahead
  ``[alpha*(i*l/n + d − B/n), alpha*(i*l/n + d)]``; everything clipped to
  ``[0, l − V_c]`` because fast-forwarding further reaches the end of the
  movie — itself a release event with interval ``[l − V_c, l]`` (Eq. 20).
* **RW** — ``i``-th partition behind (``i = 0`` is the viewer's own
  partition's trailing stretch) ``[gamma*(i*l/n − d), gamma*(i*l/n − d + B/n)]``
  clipped to ``[0, V_c]``: rewinding past the start of the movie counts as a
  miss, the boundary convention the paper states in Section 4.
* **PAU** — partitions sweep forward past the frozen viewer:
  ``[i*l/n − d, i*l/n − d + B/n]`` for ``i >= 0`` — periodic with period
  ``l/n``, independent of ``V_c``.

Unconditioning uses ``V_c ~ U[0, l]`` and ``d ~ U[0, B/n]`` (the paper's
approximations for ``P(V_c)`` and ``P(V_f)``).  The integral over ``V_c`` has
a closed form: with ``F`` the duration CDF, ``G(c) = ∫_0^c F`` and

    ``H(c) = G(min(c, l)) + (l − min(c, l)) * F(min(c, l))``

one has ``∫_0^l F(min(c, u)) du = H(c)``, so each clipped interval
``[lo, hi]`` contributes ``H(hi) − H(lo)`` to the ``V_c``-unconditioned sum
(for FF via the substitution ``u = l − V_c``; for RW via ``u = V_c``).  Only
the integral over ``d`` is evaluated numerically (Gauss–Legendre).  This is
algebraically identical to the paper's case-split equations (3)–(21) — the
test suite verifies the equivalence against the literal transcription in
:mod:`repro.core.fastforward` — but is O(n) per configuration instead of a
triply-nested quadrature, which is what makes the Section 5 sizing sweeps
cheap.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from repro.core.catchup import ff_catchup_factor, rw_catchup_factor
from repro.core.parameters import SystemConfiguration
from repro.core.vcrop import VCROperation
from repro.distributions.base import DurationDistribution
from repro.exceptions import ConfigurationError
from repro.numerics.backend import batching_enabled
from repro.numerics.intervals import Interval, IntervalUnion, measure_under_many
from repro.numerics.quadrature import _gl_nodes, gauss_legendre_nodes

__all__ = [
    "CdfTransform",
    "fastforward_hit_intervals",
    "fastforward_end_interval",
    "rewind_hit_intervals",
    "pause_hit_intervals",
    "hit_intervals",
    "hit_probability_at",
    "hit_probability_at_many",
    "hit_probability",
    "hit_probability_batch",
    "end_probability",
    "DEFAULT_OFFSET_NODES",
    "DEFAULT_GRID_POINTS",
]

#: Gauss–Legendre nodes for the in-partition-offset integral.
DEFAULT_OFFSET_NODES = 32
#: Grid resolution for the precomputed CDF transform.
DEFAULT_GRID_POINTS = 4097


# ----------------------------------------------------------------------
# Hit-duration interval sets, per viewer state.
# ----------------------------------------------------------------------
def _validate_state(config: SystemConfiguration, v_c: float, offset_d: float) -> None:
    if not 0.0 <= v_c <= config.movie_length:
        raise ConfigurationError(
            f"viewer position {v_c} outside the movie [0, {config.movie_length}]"
        )
    if not -1e-12 <= offset_d <= config.partition_span + 1e-12:
        raise ConfigurationError(
            f"in-partition offset {offset_d} outside [0, {config.partition_span}]"
        )


def fastforward_hit_intervals(
    config: SystemConfiguration, v_c: float, offset_d: float
) -> IntervalUnion:
    """Durations producing a partition hit when fast-forwarding from ``V_c``.

    Returns the union of the own-partition window and the windows of every
    reachable partition ahead, clipped to ``[0, l − V_c]`` (beyond which the
    viewer reaches the movie end — see :func:`fastforward_end_interval`).
    """
    _validate_state(config, v_c, offset_d)
    alpha = ff_catchup_factor(config.rates)
    span = config.partition_span
    spacing = config.partition_spacing
    horizon = config.movie_length - v_c
    windows: list[Interval] = [Interval(0.0, min(alpha * offset_d, horizon))]
    i = 1
    while True:
        lo = alpha * (i * spacing + offset_d - span)
        if lo >= horizon:
            break
        hi = alpha * (i * spacing + offset_d)
        windows.append(Interval(lo, min(hi, horizon)))
        i += 1
    return IntervalUnion(windows)


def fastforward_end_interval(config: SystemConfiguration, v_c: float) -> Interval:
    """Durations that fast-forward past the movie end (Eq. 20's event)."""
    return Interval(config.movie_length - v_c, config.movie_length)


def rewind_hit_intervals(
    config: SystemConfiguration, v_c: float, offset_d: float
) -> IntervalUnion:
    """Durations producing a partition hit when rewinding from ``V_c``.

    ``i = 0`` is the trailing stretch of the viewer's own partition; larger
    ``i`` are partitions behind.  Clipped to ``[0, V_c]``: reaching the start
    of the movie is a miss under the paper's stated convention.
    """
    _validate_state(config, v_c, offset_d)
    gamma = rw_catchup_factor(config.rates)
    span = config.partition_span
    spacing = config.partition_spacing
    windows: list[Interval] = []
    i = 0
    while True:
        lo = gamma * (i * spacing - offset_d)
        if lo >= v_c:
            break
        hi = gamma * (i * spacing - offset_d + span)
        windows.append(Interval(max(0.0, lo), min(hi, v_c)))
        i += 1
    return IntervalUnion(windows)


def pause_hit_intervals(
    config: SystemConfiguration, offset_d: float, max_duration: float | None = None
) -> IntervalUnion:
    """Durations after which a paused viewer finds a partition over him.

    Independent of ``V_c``: buffer windows sweep forward past the frozen
    viewer with period ``l/n``.  ``max_duration`` defaults to the movie
    length ``l`` (the paper wraps longer pauses modulo ``l``; distributions
    are defined on ``[0, l]``).
    """
    if not -1e-12 <= offset_d <= config.partition_span + 1e-12:
        raise ConfigurationError(
            f"in-partition offset {offset_d} outside [0, {config.partition_span}]"
        )
    limit = config.movie_length if max_duration is None else max_duration
    span = config.partition_span
    spacing = config.partition_spacing
    windows: list[Interval] = []
    i = 0
    while True:
        lo = i * spacing - offset_d
        if lo >= limit:
            break
        hi = lo + span
        windows.append(Interval(max(0.0, lo), min(hi, limit)))
        i += 1
    return IntervalUnion(windows)


def hit_intervals(
    operation: VCROperation,
    config: SystemConfiguration,
    v_c: float,
    offset_d: float,
) -> IntervalUnion:
    """Dispatch to the per-operation hit set (partition hits only)."""
    if operation is VCROperation.FAST_FORWARD:
        return fastforward_hit_intervals(config, v_c, offset_d)
    if operation is VCROperation.REWIND:
        return rewind_hit_intervals(config, v_c, offset_d)
    return pause_hit_intervals(config, offset_d)


def hit_probability_at(
    operation: VCROperation,
    config: SystemConfiguration,
    duration: DurationDistribution,
    v_c: float,
    offset_d: float,
    include_end_hit: bool = True,
) -> float:
    """Hit probability conditioned on the full viewer state ``(V_c, d)``.

    For FF the end-of-movie release event (Eq. 20) is included unless
    ``include_end_hit`` is False.
    """
    mass = hit_intervals(operation, config, v_c, offset_d).measure_under(duration.cdf)
    if include_end_hit and operation is VCROperation.FAST_FORWARD:
        end = fastforward_end_interval(config, v_c)
        mass += duration.probability(end.lo, end.hi)
    return min(1.0, max(0.0, mass))


# ----------------------------------------------------------------------
# CDF transform: F, G = ∫F, and H(c) = ∫_0^l F(min(c, u)) du.
# ----------------------------------------------------------------------
class CdfTransform:
    """Precomputed grid evaluation of ``F``, ``G = ∫_0^c F`` and ``H``.

    Built once per (distribution, movie length) pair; every subsequent query
    is an O(log grid) interpolation.  ``H`` is the closed-form kernel of the
    ``V_c``-unconditioning described in the module docstring.
    """

    __slots__ = ("_duration", "_length", "_xs", "_fs", "_gs", "_g_total")

    def __init__(
        self,
        duration: DurationDistribution,
        movie_length: float,
        grid_points: int = DEFAULT_GRID_POINTS,
    ) -> None:
        if grid_points < 3:
            raise ConfigurationError(f"grid_points must be >= 3, got {grid_points}")
        self._duration = duration
        self._length = float(movie_length)
        self._xs = np.linspace(0.0, self._length, grid_points)
        if batching_enabled():
            self._fs = duration.cdf_batch(self._xs)
        else:
            # The scalar oracle stays independent of every batch kernel.
            self._fs = np.asarray([duration.cdf(float(x)) for x in self._xs])
        # Cumulative trapezoid for G(c) = ∫_0^c F(u) du.  Only G needs the
        # grid; F is evaluated exactly so point masses are not smeared.
        widths = np.diff(self._xs)
        areas = 0.5 * (self._fs[1:] + self._fs[:-1]) * widths
        self._gs = np.concatenate(([0.0], np.cumsum(areas)))
        self._g_total = float(self._gs[-1])

    @property
    def movie_length(self) -> float:
        """The movie length the transform was built for."""
        return self._length

    @property
    def total_mass(self) -> float:
        """``F(l)`` — 1.0 when the distribution is truncated to the movie."""
        return float(self._fs[-1])

    def F(self, c: float) -> float:
        """The exact CDF, saturated outside ``[0, l]``."""
        if c <= 0.0:
            return 0.0
        if c >= self._length:
            return float(self._fs[-1])
        return self._duration.cdf(c)

    def G(self, c: float) -> float:
        """``∫_0^c F(u) du`` for ``c`` clamped to ``[0, l]``."""
        if c <= 0.0:
            return 0.0
        if c >= self._length:
            return self._g_total
        return float(np.interp(c, self._xs, self._gs))

    def H(self, c: float) -> float:
        """``∫_0^l F(min(c, u)) du`` — monotone, with ``H(c >= l) = G(l)``."""
        if c <= 0.0:
            return 0.0
        if c >= self._length:
            return self._g_total
        return self.G(c) + (self._length - c) * self.F(c)

    def end_mass(self) -> float:
        """``∫_0^l (1 − F(u)) du = l − G(l)`` — the Eq. (20) numerator."""
        return self._length - self._g_total

    # ------------------------------------------------------------------
    # Batched evaluation over float arrays.  Each *_many method reproduces
    # the scalar method element by element — same clamps, same
    # interpolation arithmetic, same CDF values (through the distribution's
    # ``cdf_batch``) — so the batched hit kernels below stay byte-identical
    # with the scalar path.
    # ------------------------------------------------------------------
    def F_many(self, cs: np.ndarray) -> np.ndarray:
        """Batched :meth:`F` (exact CDF with saturation outside ``[0, l]``)."""
        out = np.where(cs >= self._length, float(self._fs[-1]), 0.0)
        mask = (cs > 0.0) & (cs < self._length)
        if mask.any():
            out[mask] = self._duration.cdf_batch(cs[mask])
        return out

    def G_many(self, cs: np.ndarray) -> np.ndarray:
        """Batched :meth:`G` (``∫_0^c F``, clamped to ``[0, l]``)."""
        out = np.where(cs >= self._length, self._g_total, 0.0)
        mask = (cs > 0.0) & (cs < self._length)
        if mask.any():
            out[mask] = np.interp(cs[mask], self._xs, self._gs)
        return out

    def H_many(self, cs: np.ndarray) -> np.ndarray:
        """Batched :meth:`H` — the hot call of the batched hit kernels.

        The interior expression is the scalar ``G(c) + (l − c) · F(c)`` with
        the interpolation and the multiply/add vectorised (exactly-rounded
        ops; the CDF itself goes through the distribution's ``cdf_batch``).
        """
        length = self._length
        out = np.where(cs >= length, self._g_total, 0.0)
        mask = (cs > 0.0) & (cs < length)
        if mask.any():
            interior = cs[mask]
            out[mask] = (
                np.interp(interior, self._xs, self._gs)
                + (length - interior) * self._duration.cdf_batch(interior)
            )
        return out


# ----------------------------------------------------------------------
# Fully unconditioned hit probabilities.
# ----------------------------------------------------------------------
def _sum_ff(transform: CdfTransform, config: SystemConfiguration, d: float) -> float:
    """``∫_0^l P(partition hit | FF, V_c, d) dV_c`` via the H kernel."""
    alpha = ff_catchup_factor(config.rates)
    span = config.partition_span
    spacing = config.partition_spacing
    length = config.movie_length
    total = transform.H(alpha * d)  # own partition: window [0, alpha*d]
    i = 1
    while True:
        lo = alpha * (i * spacing + d - span)
        if lo >= length:
            break
        hi = alpha * (i * spacing + d)
        total += transform.H(hi) - transform.H(lo)
        i += 1
    return total


def _sum_rw(transform: CdfTransform, config: SystemConfiguration, d: float) -> float:
    """``∫_0^l P(partition hit | RW, V_c, d) dV_c`` via the H kernel."""
    gamma = rw_catchup_factor(config.rates)
    span = config.partition_span
    spacing = config.partition_spacing
    length = config.movie_length
    total = 0.0
    i = 0
    while True:
        lo = gamma * (i * spacing - d)
        if lo >= length:
            break
        hi = gamma * (i * spacing - d + span)
        total += transform.H(hi) - transform.H(max(0.0, lo))
        i += 1
    return total


def _sum_pause(transform: CdfTransform, config: SystemConfiguration, d: float) -> float:
    """``P(hit | PAU, d)`` — no ``V_c`` dependence, plain CDF masses."""
    span = config.partition_span
    spacing = config.partition_spacing
    length = config.movie_length
    total = 0.0
    i = 0
    while True:
        lo = i * spacing - d
        if lo >= length:
            break
        hi = lo + span
        total += transform.F(hi) - transform.F(max(0.0, lo))
        i += 1
    return total


def _offset_average(
    func: Callable[[float], float], span: float, num_nodes: int
) -> float:
    """Average of ``func(d)`` over ``d ~ U[0, span]`` by Gauss–Legendre."""
    if span <= 0.0:
        return func(0.0)
    nodes, weights = _gl_nodes(num_nodes)
    half = 0.5 * span
    total = 0.0
    for node, weight in zip(nodes, weights):
        total += weight * func(half * (node + 1.0))
    return 0.5 * total  # (half * sum)/span == sum/2


def end_probability(
    config: SystemConfiguration,
    duration: DurationDistribution,
    transform: CdfTransform | None = None,
) -> float:
    """Eq. (20): probability a FF runs past the end of the movie."""
    transform = transform or CdfTransform(duration, config.movie_length)
    return transform.end_mass() / config.movie_length


def hit_probability(
    operation: VCROperation,
    config: SystemConfiguration,
    duration: DurationDistribution,
    *,
    include_end_hit: bool = True,
    num_offset_nodes: int = DEFAULT_OFFSET_NODES,
    transform: CdfTransform | None = None,
) -> float:
    """Unconditioned ``P(hit | operation)`` — Eq. (21) and its RW/PAU analogues.

    Parameters
    ----------
    operation:
        Which VCR function the viewer performed.
    config:
        The ``(l, n, B, rates)`` system geometry.
    duration:
        Distribution of the operation's duration.  The paper defines it on
        ``[0, l]``; pass a truncated distribution for exact conformance
        (:class:`~repro.core.hitmodel.HitProbabilityModel` does this
        automatically).
    include_end_hit:
        Count fast-forwarding past the end of the movie as a release event
        (the paper's Eq. (21) includes the ``P(end)`` term).
    num_offset_nodes:
        Gauss–Legendre nodes for the in-partition-offset integral.
    transform:
        Optional precomputed :class:`CdfTransform` (reused across calls by
        the model object).
    """
    transform = transform or CdfTransform(duration, config.movie_length)
    length = config.movie_length
    if operation is VCROperation.FAST_FORWARD:
        value = _offset_average(
            lambda d: _sum_ff(transform, config, d), config.partition_span, num_offset_nodes
        ) / length
        if include_end_hit:
            value += transform.end_mass() / length
    elif operation is VCROperation.REWIND:
        value = _offset_average(
            lambda d: _sum_rw(transform, config, d), config.partition_span, num_offset_nodes
        ) / length
    elif operation is VCROperation.PAUSE:
        value = _offset_average(
            lambda d: _sum_pause(transform, config, d), config.partition_span, num_offset_nodes
        )
    else:  # pragma: no cover - enum is closed
        raise ConfigurationError(f"unknown VCR operation {operation!r}")
    return float(min(1.0, max(0.0, value)))


# ----------------------------------------------------------------------
# Batched unconditioned hit probabilities.
#
# One call evaluates a whole list of (n, B) configurations: every H/F
# argument of every offset node of every configuration is gathered into a
# single flat array, resolved with one CdfTransform batch call (one
# distribution-CDF batch, one interpolation pass), then reduced per
# configuration in exactly the order the scalar loops use — so the results
# are byte-identical to hit_probability().
# ----------------------------------------------------------------------
def _offset_nodes(span: float, num_nodes: int) -> tuple[list[float], tuple[float, ...] | None]:
    """The offset-integral abscissae of ``_offset_average`` for one config.

    Returns ``(ds, weights)``; ``weights is None`` reproduces the degenerate
    ``span <= 0`` case (a single evaluation at ``d = 0``, no averaging).
    """
    if span <= 0.0:
        return [0.0], None
    nodes, weights = gauss_legendre_nodes(num_nodes)
    half = 0.5 * span
    return [half * (node + 1.0) for node in nodes], weights


# The vectorised builders replicate the scalar loop arithmetic exactly:
# ``i * spacing`` over an exact-integer arange, then the same sequence of
# exactly-rounded +/-/* ops.  The loop's break condition is recovered from
# the (monotone) ``lo`` rows — ``(lo < length).sum()`` equals the scalar
# iteration count — with the row width doubled until it provably covers the
# break index of every offset node.
def _ff_args(
    config: SystemConfiguration, ds: list[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    alpha = ff_catchup_factor(config.rates)
    span = config.partition_span
    spacing = config.partition_spacing
    length = config.movie_length
    d_arr = np.asarray(ds, dtype=float)
    leads = alpha * d_arr
    m = max(1, math.ceil((length / alpha + span) / spacing) + 3)
    while True:
        u = np.arange(1.0, m + 1.0) * spacing + d_arr[:, None]
        lo = alpha * (u - span)
        mask = lo < length
        if not mask[:, -1].any():
            break
        m *= 2
    counts = mask.sum(axis=1)
    hi = alpha * u
    return leads, hi[mask], lo[mask], counts.tolist()


def _rw_args(
    config: SystemConfiguration, ds: list[float]
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    gamma = rw_catchup_factor(config.rates)
    span = config.partition_span
    spacing = config.partition_spacing
    length = config.movie_length
    d_arr = np.asarray(ds, dtype=float)
    m = max(1, math.ceil((length / gamma + span) / spacing) + 3)
    while True:
        u = np.arange(0.0, m) * spacing - d_arr[:, None]
        lo = gamma * u
        mask = lo < length
        if not mask[:, -1].any():
            break
        m *= 2
    counts = mask.sum(axis=1)
    hi = gamma * (u + span)
    return hi[mask], np.maximum(0.0, lo[mask]), counts.tolist()


def _pause_args(
    config: SystemConfiguration, ds: list[float]
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    span = config.partition_span
    spacing = config.partition_spacing
    length = config.movie_length
    d_arr = np.asarray(ds, dtype=float)
    m = max(1, math.ceil((length + span) / spacing) + 3)
    while True:
        lo = np.arange(0.0, m) * spacing - d_arr[:, None]
        mask = lo < length
        if not mask[:, -1].any():
            break
        m *= 2
    counts = mask.sum(axis=1)
    hi = lo + span
    return hi[mask], np.maximum(0.0, lo[mask]), counts.tolist()


def hit_probability_batch(
    operation: VCROperation,
    configs: Sequence[SystemConfiguration],
    duration: DurationDistribution,
    *,
    include_end_hit: bool = True,
    num_offset_nodes: int = DEFAULT_OFFSET_NODES,
    transform: CdfTransform | None = None,
) -> list[float]:
    """Batched :func:`hit_probability` over many configurations.

    Results are bit-for-bit equal to calling :func:`hit_probability` on each
    configuration — the scalar path remains the oracle; this entry point
    only changes *how many* quadrature arguments are resolved per call.

    Arguments are gathered into three flat streams (FF node leads, interval
    highs, interval lows), resolved with whole-stream ``H``/``F`` batches,
    differenced elementwise, and reduced per node with ``sum()`` — which adds
    left to right exactly like the scalar accumulation loops.
    """
    if not configs:
        return []
    transform = transform or CdfTransform(duration, configs[0].movie_length)
    is_ff = operation is VCROperation.FAST_FORWARD
    is_rw = operation is VCROperation.REWIND
    is_pause = operation is VCROperation.PAUSE
    if not (is_ff or is_rw or is_pause):  # pragma: no cover - enum is closed
        raise ConfigurationError(f"unknown VCR operation {operation!r}")
    resolve = transform.F_many if is_pause else transform.H_many

    plans: list[tuple[tuple[float, ...] | None, list[int]]] = []
    lead_parts: list[np.ndarray] = []
    hi_parts: list[np.ndarray] = []
    lo_parts: list[np.ndarray] = []
    for config in configs:
        ds, weights = _offset_nodes(config.partition_span, num_offset_nodes)
        if is_ff:
            leads, his, los, counts = _ff_args(config, ds)
            lead_parts.append(leads)
        elif is_rw:
            his, los, counts = _rw_args(config, ds)
        else:
            his, los, counts = _pause_args(config, ds)
        hi_parts.append(his)
        lo_parts.append(los)
        plans.append((weights, counts))
    hi_arr = np.concatenate(hi_parts)
    lo_arr = np.concatenate(lo_parts)
    # Empty intervals (span 0 collapses every [lo, hi] to a point) would
    # resolve to F(x) − F(x): exactly 0.0 for the pure elementwise F/H, so
    # skip resolving them at all — bit-identical, and a span-0 sweep (pure
    # batching, B = 0) costs nothing per interval.
    proper = hi_arr != lo_arr
    diff_arr = np.zeros(hi_arr.shape[0])
    if proper.any():
        diff_arr[proper] = resolve(hi_arr[proper]) - resolve(lo_arr[proper])
    diffs = diff_arr.tolist()
    lead_vals = resolve(np.concatenate(lead_parts)).tolist() if is_ff else []

    out: list[float] = []
    cursor = 0
    lead_cursor = 0
    for (weights, counts), config in zip(plans, configs):
        length = config.movie_length
        if weights is None:
            count = counts[0]
            if is_ff:
                avg = sum(diffs[cursor : cursor + count], lead_vals[lead_cursor])
                lead_cursor += 1
            else:
                avg = sum(diffs[cursor : cursor + count])
            cursor += count
        else:
            total = 0.0
            for weight, count in zip(weights, counts):
                if is_ff:
                    node = sum(diffs[cursor : cursor + count], lead_vals[lead_cursor])
                    lead_cursor += 1
                else:
                    node = sum(diffs[cursor : cursor + count])
                total += weight * node
                cursor += count
            avg = 0.5 * total
        value = avg if is_pause else avg / length
        if include_end_hit and is_ff:
            value += transform.end_mass() / length
        out.append(float(min(1.0, max(0.0, value))))
    return out


def hit_probability_at_many(
    operation: VCROperation,
    config: SystemConfiguration,
    duration: DurationDistribution,
    states: Sequence[tuple[float, float]],
    include_end_hit: bool = True,
) -> list[float]:
    """Batched :func:`hit_probability_at` over many ``(V_c, d)`` states.

    The hit-set geometry is built per state exactly as the scalar function
    does; only the CDF evaluation is fused into one batch through
    :func:`~repro.numerics.intervals.measure_under_many`.
    """
    unions = [hit_intervals(operation, config, v_c, offset_d) for v_c, offset_d in states]
    masses = measure_under_many(unions, duration.cdf_batch)
    out: list[float] = []
    for (v_c, _), mass in zip(states, masses):
        if include_end_hit and operation is VCROperation.FAST_FORWARD:
            end = fastforward_end_interval(config, v_c)
            mass += duration.probability(end.lo, end.hi)
        out.append(min(1.0, max(0.0, mass)))
    return out
