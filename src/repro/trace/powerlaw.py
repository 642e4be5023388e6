"""Power-law (Pareto-tail) sampling and fitting.

The paper observes (Figs. 3 and 4) that both the travel-time and the
travel-distance distributions of the Porto trace "exhibit the shape following
the power law distribution".  The synthetic trace generator therefore samples
trip durations and distances from a truncated Pareto distribution, and the
analysis package fits power-law exponents back out of trip collections so the
Fig. 3/4 benches can verify the shape.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True, slots=True)
class PowerLawDistribution:
    """A Pareto distribution ``p(x) ∝ x^(-alpha)`` for ``x >= x_min``,
    optionally truncated at ``x_max``."""

    alpha: float
    x_min: float
    x_max: float | None = None

    def __post_init__(self) -> None:
        if self.alpha <= 1.0:
            raise ValueError("alpha must exceed 1 for a normalisable power law")
        if self.x_min <= 0:
            raise ValueError("x_min must be positive")
        if self.x_max is not None and self.x_max <= self.x_min:
            raise ValueError("x_max must exceed x_min")

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def sample(self, rng: random.Random) -> float:
        """Draw a single value by inverse-transform sampling."""
        u = rng.random()
        return self._inverse_cdf(u)

    def _inverse_cdf(self, u: float) -> float:
        a = 1.0 - self.alpha
        if self.x_max is None:
            # Unbounded Pareto: F^-1(u) = x_min * (1-u)^(1/(1-alpha))
            return self.x_min * (1.0 - u) ** (1.0 / a)
        lo = self.x_min ** a
        hi = self.x_max ** a
        return (lo + u * (hi - lo)) ** (1.0 / a)

    # ------------------------------------------------------------------
    # densities / moments
    # ------------------------------------------------------------------
    def mean(self) -> float:
        """Analytic mean of the (truncated) distribution."""
        if self.x_max is None:
            if self.alpha <= 2.0:
                raise ValueError("mean diverges for alpha <= 2 without truncation")
            return self.x_min * (self.alpha - 1.0) / (self.alpha - 2.0)
        a1 = 1.0 - self.alpha
        a2 = 2.0 - self.alpha
        if abs(a2) < 1e-12:
            numerator = math.log(self.x_max / self.x_min)
        else:
            numerator = (self.x_max ** a2 - self.x_min ** a2) / a2
        denominator = (self.x_max ** a1 - self.x_min ** a1) / a1
        return numerator / denominator


def fit_power_law_mle(samples: Sequence[float], x_min: float | None = None) -> PowerLawDistribution:
    """Fit the exponent of a power law by the standard Hill/MLE estimator.

    ``alpha_hat = 1 + n / sum(ln(x_i / x_min))`` over samples ``x_i >= x_min``.
    If ``x_min`` is not supplied, the smallest positive sample is used.
    """
    values = np.asarray([s for s in samples if s > 0], dtype=float)
    if values.size < 2:
        raise ValueError("need at least two positive samples to fit a power law")
    if x_min is None:
        x_min = float(values.min())
    if x_min <= 0:
        raise ValueError("x_min must be positive")
    tail = values[values >= x_min]
    if tail.size < 2:
        raise ValueError("fewer than two samples at or above x_min")
    log_ratio_sum = float(np.log(tail / x_min).sum())
    if log_ratio_sum <= 0:
        raise ValueError("degenerate samples: all equal to x_min")
    alpha = 1.0 + tail.size / log_ratio_sum
    return PowerLawDistribution(alpha=alpha, x_min=x_min, x_max=float(tail.max()))


def tail_heaviness(samples: Sequence[float]) -> float:
    """A scale-free heaviness indicator: p99 / median.

    Heavy-tailed (power-law-like) trip collections score well above light
    tailed ones; the Fig. 3/4 tests assert on this rather than on the exact
    exponent, which is noisy for small samples.
    """
    values = np.asarray([s for s in samples if s > 0], dtype=float)
    if values.size == 0:
        raise ValueError("no positive samples")
    median = float(np.percentile(values, 50))
    p99 = float(np.percentile(values, 99))
    if median <= 0:
        raise ValueError("median must be positive")
    return p99 / median
