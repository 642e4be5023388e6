"""Tests for repro.trace.powerlaw."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import (
    PowerLawDistribution,
    fit_power_law_mle,
    tail_heaviness,
)


def draw(dist, rng, count):
    """``count`` independent samples of ``dist``."""
    return [dist.sample(rng) for _ in range(count)]


class FixedUniform:
    """A stand-in for ``random.Random`` whose ``random()`` returns ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


class TestPowerLawDistribution:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PowerLawDistribution(alpha=1.0, x_min=1.0)
        with pytest.raises(ValueError):
            PowerLawDistribution(alpha=2.0, x_min=0.0)
        with pytest.raises(ValueError):
            PowerLawDistribution(alpha=2.0, x_min=5.0, x_max=4.0)

    def test_samples_respect_support(self):
        dist = PowerLawDistribution(alpha=2.5, x_min=2.0, x_max=100.0)
        rng = random.Random(0)
        samples = draw(dist, rng, 2000)
        assert min(samples) >= 2.0
        assert max(samples) <= 100.0

    def test_unbounded_samples_above_x_min(self):
        dist = PowerLawDistribution(alpha=3.0, x_min=1.0)
        rng = random.Random(1)
        assert all(s >= 1.0 for s in draw(dist, rng, 500))

    def test_empirical_mean_matches_analytic(self):
        dist = PowerLawDistribution(alpha=2.6, x_min=3.0, x_max=7200.0)
        rng = random.Random(2)
        samples = draw(dist, rng, 20000)
        assert np.mean(samples) == pytest.approx(dist.mean(), rel=0.08)

    def test_unbounded_mean_requires_alpha_above_two(self):
        with pytest.raises(ValueError):
            PowerLawDistribution(alpha=1.8, x_min=1.0).mean()

    def test_inverse_cdf_maps_the_unit_interval_onto_the_support(self):
        dist = PowerLawDistribution(alpha=2.5, x_min=2.0, x_max=100.0)
        assert dist.sample(FixedUniform(0.0)) == pytest.approx(2.0)
        assert dist.sample(FixedUniform(1.0)) == pytest.approx(100.0)
        assert dist.sample(FixedUniform(0.25)) < dist.sample(FixedUniform(0.75))

    def test_unbounded_mean_closed_form(self):
        # x_min * (alpha - 1) / (alpha - 2) = 2 * 2 / 1 at alpha = 3.
        assert PowerLawDistribution(alpha=3.0, x_min=2.0).mean() == pytest.approx(4.0)

    def test_truncated_mean_at_alpha_two_uses_the_log_limit(self):
        # At alpha = 2 the numerator's x^(2-alpha)/(2-alpha) becomes ln(x).
        dist = PowerLawDistribution(alpha=2.0, x_min=1.0, x_max=10.0)
        expected = math.log(10.0) / (1.0 - 1.0 / 10.0)
        assert dist.mean() == pytest.approx(expected)
        samples = draw(dist, random.Random(7), 20000)
        assert np.mean(samples) == pytest.approx(expected, rel=0.05)

    def test_truncated_mean_lies_inside_the_support(self):
        dist = PowerLawDistribution(alpha=1.5, x_min=3.0, x_max=50.0)
        assert 3.0 < dist.mean() < 50.0

    def test_determinism_given_seed(self):
        dist = PowerLawDistribution(alpha=2.5, x_min=1.0, x_max=100.0)
        a = draw(dist, random.Random(42), 10)
        b = draw(dist, random.Random(42), 10)
        assert a == b


class TestFitting:
    def test_mle_recovers_exponent(self):
        true = PowerLawDistribution(alpha=2.4, x_min=5.0)
        rng = random.Random(3)
        samples = draw(true, rng, 30000)
        fitted = fit_power_law_mle(samples, x_min=5.0)
        assert fitted.alpha == pytest.approx(2.4, abs=0.1)

    def test_mle_requires_enough_samples(self):
        with pytest.raises(ValueError):
            fit_power_law_mle([1.0])

    def test_mle_rejects_degenerate_samples(self):
        with pytest.raises(ValueError):
            fit_power_law_mle([2.0, 2.0, 2.0], x_min=2.0)

    def test_mle_fits_only_the_tail_at_or_above_x_min(self):
        samples = [0.5, 0.9, 1.0, 2.0, 4.0, 8.0]
        fitted = fit_power_law_mle(samples, x_min=1.0)
        tail = [1.0, 2.0, 4.0, 8.0]
        expected = 1.0 + len(tail) / sum(math.log(x) for x in tail)
        assert fitted.alpha == pytest.approx(expected)
        assert fitted.x_min == 1.0
        assert fitted.x_max == 8.0

    def test_mle_ignores_non_positive_samples(self):
        with_junk = fit_power_law_mle([-3.0, 0.0, 1.0, 2.0, 4.0])
        clean = fit_power_law_mle([1.0, 2.0, 4.0])
        assert with_junk == clean

    def test_mle_rejects_a_non_positive_x_min(self):
        with pytest.raises(ValueError):
            fit_power_law_mle([1.0, 2.0, 3.0], x_min=0.0)

    def test_mle_needs_two_samples_in_the_tail(self):
        with pytest.raises(ValueError):
            fit_power_law_mle([1.0, 2.0, 3.0], x_min=2.5)

    def test_mle_infers_x_min(self):
        samples = [1.0, 2.0, 4.0, 8.0, 16.0]
        fitted = fit_power_law_mle(samples)
        assert fitted.x_min == 1.0

    @given(st.floats(min_value=2.1, max_value=3.5))
    @settings(max_examples=20, deadline=None)
    def test_mle_roundtrip_property(self, alpha):
        dist = PowerLawDistribution(alpha=alpha, x_min=1.0)
        samples = draw(dist, random.Random(11), 8000)
        fitted = fit_power_law_mle(samples, x_min=1.0)
        assert fitted.alpha == pytest.approx(alpha, rel=0.10)


class TestDescriptiveStats:
    def test_tail_heaviness_orders_distributions(self):
        rng = random.Random(5)
        heavy = draw(PowerLawDistribution(alpha=2.2, x_min=1.0), rng, 5000)
        light = [rng.gauss(10.0, 1.0) for _ in range(5000)]
        assert tail_heaviness(heavy) > tail_heaviness(light)

    def test_tail_heaviness_is_scale_free(self):
        samples = draw(PowerLawDistribution(alpha=2.5, x_min=1.0), random.Random(9), 2000)
        scaled = [60.0 * s for s in samples]
        assert tail_heaviness(scaled) == pytest.approx(tail_heaviness(samples))

    def test_tail_heaviness_ignores_non_positive_samples(self):
        samples = [1.0, 2.0, 3.0, 50.0]
        assert tail_heaviness([0.0, -1.0] + samples) == tail_heaviness(samples)
        with pytest.raises(ValueError):
            tail_heaviness([0.0, -2.0])

    def test_tail_heaviness_requires_samples(self):
        with pytest.raises(ValueError):
            tail_heaviness([])
