"""The soak's parity verdict (contract 15) compares whole epoch plans."""

import dataclasses

from repro.service import SoakConfig, lifecycle, run_soak

CONFIG = SoakConfig(
    orders=200, cities=1, epochs=2, drivers_per_city=8, parity_epochs=None
)


def _nudge_first_arrival(result):
    """``result`` with one served task's arrival time moved by 1 ms."""
    plans = list(result.solution.plans)
    position = next(i for i, plan in enumerate(plans) if plan.task_indices)
    plan = plans[position]
    plans[position] = dataclasses.replace(
        plan, arrival_times=(plan.arrival_times[0] + 1e-3, *plan.arrival_times[1:])
    )
    solution = dataclasses.replace(result.solution, plans=tuple(plans))
    return dataclasses.replace(result, solution=solution)


class TestSoakParity:
    def test_a_perturbed_arrival_time_fails_parity(self, monkeypatch):
        replay = lifecycle.replay_ingested
        monkeypatch.setattr(
            lifecycle,
            "replay_ingested",
            lambda runtime, epoch=0: _nudge_first_arrival(replay(runtime, epoch)),
        )
        report = run_soak(CONFIG)
        assert report.parity_checked == 2
        assert report.parity_ok is False
