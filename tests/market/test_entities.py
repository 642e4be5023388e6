"""Tests for the Driver and Task entities."""

import math

import pytest

from repro.geo import GeoPoint
from repro.market import Driver, Task

A = GeoPoint(41.15, -8.61)
B = A.offset_km(0.0, 5.0)


class TestDriver:
    def test_basic_properties(self):
        driver = Driver("d1", A, B, start_ts=100.0, end_ts=4000.0)
        assert driver.working_duration_s == 3900.0

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            Driver("d1", A, B, start_ts=10.0, end_ts=10.0)
        with pytest.raises(ValueError):
            Driver("d1", A, B, start_ts=10.0, end_ts=5.0)

    def test_with_window_creates_copy(self):
        driver = Driver("d1", A, B, start_ts=0.0, end_ts=100.0)
        other = driver.with_window(50.0, 500.0)
        assert other.driver_id == "d1"
        assert (other.start_ts, other.end_ts) == (50.0, 500.0)
        assert (driver.start_ts, driver.end_ts) == (0.0, 100.0)


class TestTask:
    def make(self, **overrides):
        defaults = dict(
            task_id="m1",
            publish_ts=0.0,
            source=A,
            destination=B,
            start_deadline_ts=600.0,
            end_deadline_ts=1800.0,
            price=8.0,
        )
        defaults.update(overrides)
        return Task(**defaults)

    def test_basic_properties(self):
        task = self.make(wtp=10.0, distance_km=5.0)
        assert task.valuation == 10.0
        assert task.consumer_surplus == pytest.approx(2.0)
        assert task.is_publishable
        assert task.ride_window_s == pytest.approx(1200.0)

    def test_valuation_defaults_to_price(self):
        task = self.make()
        assert task.valuation == task.price
        assert task.consumer_surplus == 0.0
        assert task.is_publishable

    def test_unpublishable_when_price_exceeds_wtp(self):
        task = self.make(wtp=5.0)
        assert not task.is_publishable

    def test_invalid_time_ordering(self):
        with pytest.raises(ValueError):
            self.make(publish_ts=700.0)  # publish after start deadline
        with pytest.raises(ValueError):
            self.make(end_deadline_ts=600.0)  # end not after start

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            self.make(price=-1.0)
        with pytest.raises(ValueError):
            self.make(wtp=-1.0)
        with pytest.raises(ValueError):
            self.make(distance_km=-0.1)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "entity, field",
    [
        ("task", "publish_ts"),
        ("task", "start_deadline_ts"),
        ("task", "end_deadline_ts"),
        ("task", "price"),
        ("task", "wtp"),
        ("task", "distance_km"),
        ("driver", "start_ts"),
        ("driver", "end_ts"),
    ],
)
def test_non_finite_fields_rejected(entity, field, value):
    """NaN and +-inf slip past every ordering and sign check; a NaN wtp or
    distance would also read back as "not supplied" after a delta round
    trip, so a serial and a process solve of the same task would differ."""
    with pytest.raises(ValueError, match="finite"):
        if entity == "task":
            TestTask().make(**{field: value})
        else:
            Driver(**{"driver_id": "d1", "source": A, "destination": B,
                      "start_ts": 0.0, "end_ts": 100.0, field: value})
