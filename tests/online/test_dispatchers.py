"""Tests for the online dispatch rules."""

import pytest

from repro.geo import GeoPoint
from repro.market import Driver, Task
from repro.online import MaxMarginDispatcher, NearestDispatcher
from repro.online.state import Candidate, DriverState

A = GeoPoint(41.15, -8.61)


def make_candidate(driver_id: str, arrival: float, margin: float) -> Candidate:
    driver = Driver(driver_id, A, A.offset_km(0.0, 1.0), 0.0, 10_000.0)
    return Candidate(
        state=DriverState.fresh(driver),
        arrival_ts=arrival,
        dropoff_ts=arrival + 500.0,
        approach_cost=0.1,
        marginal_value=margin,
    )


TASK = Task(
    task_id="m",
    publish_ts=0.0,
    source=A,
    destination=A.offset_km(0.0, 2.0),
    start_deadline_ts=600.0,
    end_deadline_ts=1500.0,
    price=4.0,
)


class TestNearestDispatcher:
    def test_picks_fastest_arrival(self):
        dispatcher = NearestDispatcher(seed=1)
        candidates = [
            make_candidate("slow", arrival=500.0, margin=9.0),
            make_candidate("fast", arrival=100.0, margin=0.5),
        ]
        assert dispatcher.select(TASK, candidates).driver_id == "fast"

    def test_empty_candidate_set_rejects(self):
        assert NearestDispatcher().select(TASK, []) is None

    def test_tie_breaking_is_random_but_among_fastest(self):
        dispatcher = NearestDispatcher(seed=3)
        candidates = [
            make_candidate("a", arrival=100.0, margin=1.0),
            make_candidate("b", arrival=100.0, margin=2.0),
            make_candidate("c", arrival=400.0, margin=3.0),
        ]
        chosen = {dispatcher.select(TASK, candidates).driver_id for _ in range(30)}
        assert chosen <= {"a", "b"}
        assert len(chosen) == 2  # both fastest drivers get picked eventually

    def test_name(self):
        assert NearestDispatcher().name == "nearest"


class TestMaxMarginDispatcher:
    def test_picks_highest_margin(self):
        dispatcher = MaxMarginDispatcher()
        candidates = [
            make_candidate("poor", arrival=100.0, margin=0.5),
            make_candidate("rich", arrival=500.0, margin=3.5),
        ]
        assert dispatcher.select(TASK, candidates).driver_id == "rich"

    def test_rejects_when_all_margins_negative(self):
        dispatcher = MaxMarginDispatcher()
        candidates = [make_candidate("a", 100.0, -1.0), make_candidate("b", 200.0, -0.2)]
        assert dispatcher.select(TASK, candidates) is None

    def test_empty_candidate_set_rejects(self):
        assert MaxMarginDispatcher().select(TASK, []) is None

    def test_name(self):
        assert MaxMarginDispatcher().name == "maxMargin"

