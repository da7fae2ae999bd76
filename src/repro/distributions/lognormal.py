"""Lognormal duration distribution.

Human interaction times (how long somebody holds fast-forward) are classically
heavy-tailed; the lognormal is the standard parametric fit.  Provided so a
deployment can plug measured VCR statistics into the model with a realistic
tail, per the paper's "the pdf of VCR requests can be obtained by statistics
while the movie is displayed".
"""

from __future__ import annotations

import math

import numpy as np

from repro.distributions.base import DurationDistribution
from repro.exceptions import DistributionError

__all__ = ["LognormalDuration"]

_SQRT2 = math.sqrt(2.0)


class LognormalDuration(DurationDistribution):
    """Lognormal with log-space location ``mu`` and scale ``sigma``."""

    __slots__ = ("_mu", "_sigma")

    def __init__(self, mu: float, sigma: float) -> None:
        self._mu = float(mu)
        if not math.isfinite(self._mu):
            raise DistributionError(f"mu must be finite, got {mu}")
        self._sigma = self._require_positive("sigma", sigma)

    @classmethod
    def from_mean_cv(cls, mean: float, cv: float) -> "LognormalDuration":
        """Construct from the distribution mean and coefficient of variation.

        This is how one would typically fit measured durations: match the
        sample mean and sample CV.
        """
        mean = cls._require_positive("mean", mean)
        cv = cls._require_positive("cv", cv)
        sigma2 = math.log1p(cv * cv)
        mu = math.log(mean) - 0.5 * sigma2
        return cls(mu=mu, sigma=math.sqrt(sigma2))

    @property
    def mu(self) -> float:
        """Log-space location parameter."""
        return self._mu

    @property
    def sigma(self) -> float:
        """Log-space scale parameter."""
        return self._sigma

    @property
    def mean(self) -> float:
        return math.exp(self._mu + 0.5 * self._sigma * self._sigma)

    def pdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        z = (math.log(x) - self._mu) / self._sigma
        denominator = x * self._sigma * math.sqrt(2.0 * math.pi)
        if denominator == 0.0:
            # Subnormal x underflows the denominator, but the Gaussian
            # numerator underflows to 0 long before (|log x| >= 744 puts
            # z**2 far past exp's range for any paper-scale sigma).
            return 0.0
        return math.exp(-0.5 * z * z) / denominator

    def cdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        z = (math.log(x) - self._mu) / (self._sigma * _SQRT2)
        return 0.5 * (1.0 + math.erf(z))

    def cdf_batch(self, xs):
        # Same arithmetic as ``cdf`` (bit-for-bit): log and erf go through
        # map(math.log / math.erf, ...) per element; the shift, the divide
        # and the final affine map are exactly-rounded vector ops.
        xs = np.asarray(xs, dtype=float)
        out = np.zeros(xs.shape)
        pos = ~(xs <= 0.0)
        n = int(pos.sum())
        logs = np.fromiter(map(math.log, xs[pos].tolist()), dtype=float, count=n)
        zs = (logs - self._mu) / (self._sigma * _SQRT2)
        out[pos] = 0.5 * (1.0 + np.fromiter(map(math.erf, zs.tolist()), dtype=float, count=n))
        return out

    def sample(self, rng: np.random.Generator, size: int | None = None):
        return rng.lognormal(self._mu, self._sigma, size=size)

    def describe(self) -> str:
        return f"Lognormal(mu={self._mu:g}, sigma={self._sigma:g}, mean={self.mean:g})"
