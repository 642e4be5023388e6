"""Tests for performance-ratio computation."""

import math

import pytest

from repro.analysis import BoundKind, PerformanceRatio, compute_upper_bound
from repro.offline import build_arc_flow_model, exact_optimum, greedy_assignment

from ..conftest import build_random_instance


@pytest.fixture(scope="module")
def instance():
    return build_random_instance(task_count=20, driver_count=6, seed=43)


class TestPerformanceRatio:
    def test_ratio_and_efficiency(self):
        r = PerformanceRatio("Greedy", achieved=80.0, upper_bound=100.0, bound_kind=BoundKind.EXACT)
        assert r.ratio == pytest.approx(1.25)
        assert r.efficiency == pytest.approx(0.8)

    def test_zero_achieved_gives_infinite_ratio(self):
        r = PerformanceRatio("x", achieved=0.0, upper_bound=10.0, bound_kind=BoundKind.EXACT)
        assert math.isinf(r.ratio)
        assert r.efficiency == 0.0

    def test_degenerate_zero_zero(self):
        r = PerformanceRatio("x", achieved=0.0, upper_bound=0.0, bound_kind=BoundKind.EXACT)
        assert r.ratio == 1.0
        assert r.efficiency == 1.0

    def test_efficiency_clipped_to_one(self):
        r = PerformanceRatio("x", achieved=10.000001, upper_bound=10.0, bound_kind=BoundKind.EXACT)
        assert r.efficiency == 1.0


class TestComputeUpperBound:
    def test_lp_bound_matches_direct_call(self, instance):
        via_helper = compute_upper_bound(instance, BoundKind.LP_RELAXATION)
        direct = build_arc_flow_model(instance).solve().upper_bound
        assert via_helper == pytest.approx(direct)

    def test_exact_bound_matches_direct_call(self, instance):
        via_helper = compute_upper_bound(instance, BoundKind.EXACT)
        direct = exact_optimum(instance).optimum
        assert via_helper == pytest.approx(direct)

    def test_bound_ordering(self, instance):
        exact = compute_upper_bound(instance, BoundKind.EXACT)
        lp = compute_upper_bound(instance, BoundKind.LP_RELAXATION)
        lagrangian = compute_upper_bound(instance, BoundKind.LAGRANGIAN, lagrangian_iterations=30)
        greedy = greedy_assignment(instance).total_value
        assert greedy <= exact + 1e-6
        assert exact <= lp + 1e-6
        assert exact <= lagrangian + 1e-6
