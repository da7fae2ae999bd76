"""Abstract base class for VCR-operation duration distributions.

A duration distribution models the random variable ``X`` that the paper calls
"the amount of time spent in a VCR request" — for FF/RW this is movie-time
traversed (which is what makes the Eq.-(1) catch-up thresholds ``alpha*delta``
and ``gamma*delta`` directly comparable to it), for PAU it is wall-clock time.

Subclasses implement ``pdf``, ``cdf``, ``mean`` and ``sample``; the base class
provides interval probability, survival, a numerical ``ppf`` (inverse CDF) and
light self-checks shared by all families.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.exceptions import DistributionError
from repro.numerics.rootfind import bisect

__all__ = ["DurationDistribution"]


class DurationDistribution(ABC):
    """Continuous non-negative random duration.

    The support is ``[0, upper)`` where ``upper`` may be ``math.inf``.  All
    probability-returning methods are exact for points outside the support
    (``cdf(x) = 0`` for ``x <= 0`` etc.), so callers never need to clamp.
    """

    @property
    @abstractmethod
    def mean(self) -> float:
        """Expected duration."""

    @property
    def upper(self) -> float:
        """Least upper bound of the support (``inf`` when unbounded)."""
        return math.inf

    @abstractmethod
    def pdf(self, x: float) -> float:
        """Probability density at ``x`` (0 outside the support)."""

    @abstractmethod
    def cdf(self, x: float) -> float:
        """``P(X <= x)``."""

    @abstractmethod
    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw samples using the supplied NumPy generator.

        Returns a float when ``size`` is ``None``, else an ndarray of shape
        ``(size,)``.
        """

    # ------------------------------------------------------------------
    # Shared derived quantities.
    # ------------------------------------------------------------------
    def cdf_batch(self, xs: "Sequence[float] | np.ndarray") -> np.ndarray:
        """``P(X <= x)`` for every ``x`` of a float array — the batched-model hook.

        The base implementation is the scalar CDF in a loop, so every family
        is batchable by construction.  Families with a cheaper whole-batch
        evaluation override this; every override is required to be
        *bit-for-bit* equal to the scalar ``cdf`` element by element — the
        batched hit model relies on that to stay byte-identical with the
        scalar oracle.  Any float sequence is accepted; the result is an
        ndarray of the same length.
        """
        values = np.asarray(xs, dtype=float).tolist()
        return np.fromiter(map(self.cdf, values), dtype=float, count=len(values))

    def probability(self, lo: float, hi: float) -> float:
        """``P(lo <= X <= hi)``; clamps a reversed or empty range to 0."""
        if hi <= lo:
            return 0.0
        return max(0.0, self.cdf(hi) - self.cdf(lo))

    def survival(self, x: float) -> float:
        """``P(X > x)``."""
        return max(0.0, 1.0 - self.cdf(x))

    def ppf(self, q: float) -> float:
        """Numerical inverse CDF (subclasses override when closed-form).

        Uses bisection on the CDF; requires ``q`` in ``(0, 1)``.
        """
        if not 0.0 < q < 1.0:
            raise DistributionError(f"ppf requires q in (0, 1), got {q}")
        hi = self.upper
        if math.isinf(hi):
            hi = max(self.mean, 1.0)
            while self.cdf(hi) < q:
                hi *= 2.0
                if hi > 1e12:
                    raise DistributionError("ppf failed to bracket the quantile")
        return bisect(lambda x: self.cdf(x) - q, 0.0, hi, tol=1e-10)

    def describe(self) -> str:
        """Short human-readable description used by experiment reports."""
        return f"{type(self).__name__}(mean={self.mean:g})"

    # ------------------------------------------------------------------
    # Validation helpers for subclasses.
    # ------------------------------------------------------------------
    @staticmethod
    def _require_positive(name: str, value: float) -> float:
        value = float(value)
        if not math.isfinite(value) or value <= 0.0:
            raise DistributionError(f"{name} must be a positive finite number, got {value}")
        return value

    @staticmethod
    def _require_non_negative(name: str, value: float) -> float:
        value = float(value)
        if not math.isfinite(value) or value < 0.0:
            raise DistributionError(f"{name} must be a non-negative finite number, got {value}")
        return value

    def __repr__(self) -> str:
        return self.describe()
