"""Tests for the max-profit-path dynamic program."""

import numpy as np
import pytest

import repro.offline
from repro.offline import EMPTY_PATH, best_path

from ..conftest import build_chain_instance, build_random_instance
from ..exact_oracle import enumerate_paths
from ..taskmap_oracle import is_feasible_path, path_profit


@pytest.fixture(scope="module")
def chain():
    return build_chain_instance()


@pytest.fixture(scope="module")
def random_instance():
    return build_random_instance(task_count=25, driver_count=6, seed=17)


class TestBestPathOnChainInstance:
    def test_chainer_best_path_is_the_full_chain(self, chain):
        task_map = chain.task_map("chainer")
        result = best_path(task_map)
        assert result.path == (0, 1)
        assert result.profit == pytest.approx(path_profit(task_map, [0, 1]))

    def test_stranded_driver_gets_empty_path(self, chain):
        result = best_path(chain.task_map("stranded"))
        assert result is EMPTY_PATH
        assert result.path == ()
        assert result.profit == 0.0

    def test_availability_mask_restricts_path(self, chain):
        task_map = chain.task_map("chainer")
        only_second = np.array([False, True])
        result = best_path(task_map, available=only_second)
        assert result.path == (1,)
        assert result.profit == pytest.approx(path_profit(task_map, [1]))

    def test_all_unavailable_gives_empty_path(self, chain):
        task_map = chain.task_map("chainer")
        result = best_path(task_map, available=np.zeros(2, dtype=bool))
        assert result.path == ()

    def test_wrong_mask_shape_rejected(self, chain):
        with pytest.raises(ValueError):
            best_path(chain.task_map("chainer"), available=np.ones(5, dtype=bool))

    @pytest.mark.parametrize("dtype", [int, np.int8, float])
    def test_non_boolean_mask_rejected(self, chain, dtype):
        """An integer 0/1 vector would fancy-index instead of mask: the DP
        would see the wrong tasks as available and could return a path
        through a removed task."""
        with pytest.raises(TypeError):
            best_path(chain.task_map("chainer"), available=np.array([0, 1], dtype=dtype))

    def test_best_paths_for_all_is_gone(self):
        assert not hasattr(repro.offline, "best_paths_for_all")
        assert not hasattr(repro.offline.dag, "best_paths_for_all")


class TestBestPathAgainstEnumeration:
    """The DP must match exhaustive path enumeration on small instances."""

    def test_matches_enumeration_for_every_driver(self, random_instance):
        for driver in random_instance.drivers:
            task_map = random_instance.task_map(driver.driver_id)
            dp = best_path(task_map)
            candidates = enumerate_paths(task_map)
            brute = 0.0
            for path in candidates:
                brute = max(brute, path_profit(task_map, path))
            assert dp.profit == pytest.approx(max(brute, 0.0), rel=1e-9, abs=1e-9)

    def test_matches_enumeration_with_random_masks(self, random_instance):
        rng = np.random.default_rng(5)
        task_count = random_instance.task_count
        for driver in random_instance.drivers[:3]:
            task_map = random_instance.task_map(driver.driver_id)
            for _ in range(3):
                mask = rng.random(task_count) > 0.4
                dp = best_path(task_map, available=mask)
                brute = 0.0
                for path in enumerate_paths(task_map, available=mask):
                    brute = max(brute, path_profit(task_map, path))
                assert dp.profit == pytest.approx(max(brute, 0.0), rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("seed", [17, 23, 31])
    def test_values_vector_matches_enumeration(self, seed):
        """``values=`` is how the Lagrangian bound shifts task values by its
        multipliers: the network's own prices reproduce the default call, and
        a non-negative shift matches brute force over every feasible path."""
        instance = build_random_instance(task_count=20, driver_count=5, seed=seed)
        prices = instance.task_network.prices
        shift = np.random.default_rng(seed).uniform(0.0, 3.0, size=instance.task_count)
        for driver in instance.drivers:
            task_map = instance.task_map(driver.driver_id)
            assert best_path(task_map, values=prices) == best_path(task_map)
            shifted = best_path(task_map, values=prices - shift)
            brute = max(
                (
                    path_profit(task_map, path) - shift[list(path)].sum()
                    for path in enumerate_paths(task_map)
                ),
                default=0.0,
            )
            assert shifted.profit == pytest.approx(max(brute, 0.0), rel=1e-9, abs=1e-9)

    def test_wrong_values_shape_rejected(self, random_instance):
        task_map = random_instance.task_map(random_instance.drivers[0].driver_id)
        with pytest.raises(ValueError):
            best_path(task_map, values=np.ones(random_instance.task_count + 1))

    def test_returned_path_is_feasible_and_consistent(self, random_instance):
        for driver in random_instance.drivers:
            task_map = random_instance.task_map(driver.driver_id)
            result = best_path(task_map)
            assert is_feasible_path(task_map, result.path)
            if result.path:
                assert result.profit == pytest.approx(path_profit(task_map, result.path))
                assert result.profit > 0.0

    def test_social_welfare_objective_never_below_profit_objective(self, random_instance):
        """With b_m >= p_m (or equal), the welfare-optimal path value is >= the
        profit-optimal path value."""
        for driver in random_instance.drivers:
            task_map = random_instance.task_map(driver.driver_id)
            profit = best_path(task_map).profit
            welfare = best_path(task_map, use_valuation=True).profit
            assert welfare >= profit - 1e-9


class TestEnumeratePaths:
    def test_enumeration_counts_chain_instance(self, chain):
        paths = enumerate_paths(chain.task_map("chainer"))
        assert set(paths) == {(0,), (1,), (0, 1)}
        assert enumerate_paths(chain.task_map("stranded")) == []

    def test_enumeration_cap(self, random_instance):
        task_map = random_instance.task_map(random_instance.drivers[0].driver_id)
        if enumerate_paths(task_map):
            with pytest.raises(RuntimeError):
                enumerate_paths(task_map, max_paths=1)

    def test_empty_instance(self, chain):
        empty = chain.with_tasks([])
        assert enumerate_paths(empty.task_map("chainer")) == []
        assert best_path(empty.task_map("chainer")) is EMPTY_PATH
