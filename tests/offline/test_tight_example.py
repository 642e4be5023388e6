"""Tests for the Fig. 2 tightness construction."""

import pytest

from repro.market import market_diameter
from repro.offline import build_tight_example, exact_optimum, greedy_assignment

from ..conftest import plan_of
from ..taskmap_oracle import arc_exists


class TestConstruction:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            build_tight_example(chain_length=1)
        with pytest.raises(ValueError):
            build_tight_example(chain_length=3, epsilon=0.0)
        with pytest.raises(ValueError):
            build_tight_example(chain_length=3, epsilon=1.0)

    def test_sizes(self):
        example = build_tight_example(chain_length=5, epsilon=0.05)
        # D chain tasks + 1 extra task; 1 long-haul driver + D local drivers.
        assert example.instance.task_count == 6
        assert example.instance.driver_count == 6
        assert example.chain_length == 5

    def test_local_drivers_see_exactly_their_task(self):
        example = build_tight_example(chain_length=4, epsilon=0.05)
        for k in range(4):
            task_map = example.instance.task_map(f"local-{k}")
            assert [int(m) for m in task_map.entry_tasks()] == [k]

    def test_extra_task_is_exclusive_to_long_haul(self):
        example = build_tight_example(chain_length=4, epsilon=0.05)
        extra_index = example.instance.task_count - 1
        long_haul = example.instance.task_map("long-haul")
        assert extra_index in set(int(m) for m in long_haul.entry_tasks())
        for k in range(4):
            local = example.instance.task_map(f"local-{k}")
            assert extra_index not in set(int(m) for m in local.usable_tasks())

    @pytest.mark.parametrize("chain_length", [2, 3, 4, 8, 12])
    def test_chain_length_is_the_market_diameter(self, chain_length):
        """Theorem 1's bound quotes ``chain_length`` as ``D``: it must be
        the diameter the code computes for the construction."""
        example = build_tight_example(chain_length=chain_length, epsilon=0.05)
        assert market_diameter(example.instance) == chain_length

    def test_extra_task_cannot_be_combined_with_chain(self):
        example = build_tight_example(chain_length=4, epsilon=0.05)
        long_haul = example.instance.task_map("long-haul")
        extra_index = example.instance.task_count - 1
        for k in range(4):
            assert not arc_exists(long_haul, extra_index, k)
            assert not arc_exists(long_haul, k, extra_index)


class TestAdversarialBehaviour:
    def test_greedy_matches_predicted_value(self):
        example = build_tight_example(chain_length=4, epsilon=0.05)
        solution = greedy_assignment(example.instance)
        solution.validate()
        assert solution.total_value == pytest.approx(example.expected_greedy_value, rel=1e-6)
        # Greedy gives the whole chain to the long-haul driver.
        assert plan_of(solution, "long-haul").task_indices == tuple(range(4))

    def test_exact_matches_predicted_optimum(self):
        example = build_tight_example(chain_length=4, epsilon=0.05)
        result = exact_optimum(example.instance)
        assert result.optimum == pytest.approx(example.expected_optimal_value, rel=1e-6)

    def test_achieved_ratio_close_to_theoretical_bound(self):
        example = build_tight_example(chain_length=5, epsilon=0.02)
        assert example.expected_ratio == pytest.approx(example.theoretical_bound, abs=0.05)
        assert example.expected_ratio >= example.theoretical_bound - 1e-9

    @pytest.mark.parametrize("chain_length", [2, 3, 6])
    def test_greedy_respects_theorem_bound_on_adversarial_instances(self, chain_length):
        example = build_tight_example(chain_length=chain_length, epsilon=0.05)
        greedy = greedy_assignment(example.instance).total_value
        optimum = exact_optimum(example.instance).optimum
        assert greedy >= optimum / (chain_length + 1) - 1e-6

    def test_smaller_epsilon_pushes_ratio_towards_bound(self):
        loose = build_tight_example(chain_length=4, epsilon=0.2)
        tight = build_tight_example(chain_length=4, epsilon=0.02)
        gap_loose = loose.expected_ratio - loose.theoretical_bound
        gap_tight = tight.expected_ratio - tight.theoretical_bound
        assert gap_tight < gap_loose
