"""Uniform duration distribution on ``[lo, hi]``.

A useful stress case for the hit model: unlike the exponential/gamma families
the uniform density has hard edges, which exercises the interval-clipping
logic of the hit-set engine.
"""

from __future__ import annotations

import numpy as np

from repro.distributions.base import DurationDistribution
from repro.exceptions import DistributionError

__all__ = ["UniformDuration"]


class UniformDuration(DurationDistribution):
    """Continuous uniform distribution on ``[lo, hi]`` with ``0 <= lo < hi``."""

    __slots__ = ("_lo", "_hi")

    def __init__(self, lo: float, hi: float) -> None:
        self._lo = self._require_non_negative("lo", lo)
        self._hi = float(hi)
        if not self._hi > self._lo:
            raise DistributionError(f"uniform requires hi > lo, got [{lo}, {hi}]")

    @property
    def lo(self) -> float:
        """Lower endpoint of the support."""
        return self._lo

    @property
    def hi(self) -> float:
        """Upper endpoint of the support."""
        return self._hi

    @property
    def upper(self) -> float:
        return self._hi

    @property
    def mean(self) -> float:
        return 0.5 * (self._lo + self._hi)

    def pdf(self, x: float) -> float:
        if self._lo <= x <= self._hi:
            return 1.0 / (self._hi - self._lo)
        return 0.0

    def cdf(self, x: float) -> float:
        if x <= self._lo:
            return 0.0
        if x >= self._hi:
            return 1.0
        return (x - self._lo) / (self._hi - self._lo)

    def cdf_batch(self, xs):
        # Same clamps and the same (x − lo) / (hi − lo) as ``cdf``, all
        # exactly-rounded vector ops.
        xs = np.asarray(xs, dtype=float)
        out = np.where(xs >= self._hi, 1.0, 0.0)
        inner = ~((xs <= self._lo) | (xs >= self._hi))
        out[inner] = (xs[inner] - self._lo) / (self._hi - self._lo)
        return out

    def ppf(self, q: float) -> float:
        if not 0.0 < q < 1.0:
            return super().ppf(q)
        return self._lo + q * (self._hi - self._lo)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        return rng.uniform(self._lo, self._hi, size=size)

    def describe(self) -> str:
        return f"Uniform([{self._lo:g}, {self._hi:g}])"
