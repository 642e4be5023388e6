"""The four workloads of the dispatch benchmark.

Every workload builds its inputs from the seed, drives the engine through
its public API and hands back raw timings; ``run.py`` turns those into the
metrics.  The *why* of each workload is in ``README.md`` and
``BENCHMARK.json``; the shape they share is

``setup()``      inputs from the seed, pool start, a warm-up pass
``reference()``  the fingerprint(s) a measured unit must reproduce
``measure(s)``   the measured rounds ``s`` seconds buy, then the checks
``trace(s)``     the same rounds with :mod:`spans` wrappers, for the layers
``teardown()``   close the pool; returns what it leaked (nothing, ideally)

All four use a 2x2 ``SpatialPartitioner`` grid and one load-generating
process; ``epochs-shm`` adds exactly one worker process.
"""

from __future__ import annotations

import asyncio
import hashlib
import multiprocessing
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.distributed import DistributedCoordinator, SpatialPartitioner
from repro.distributed.coordinator import DistributedStreamSession
from repro.distributed.payload import tasks_from_delta
from repro.distributed.pool import PersistentWorkerPool
from repro.distributed.transport import ShmShipper, delta_from_descriptor
from repro.market.instance import MarketInstance
from repro.online.batch import BatchConfig
from repro.scenarios import compile_scenario, get_scenario, scenario_names
from repro.service import DispatchService, SoakConfig, replay_ingested, synthesize_city_orders
from repro.service.batcher import WindowBatcher

import spans

_clock = time.perf_counter

GRID = (2, 2)


def compile_days(seed: int, trips: int, drivers: int) -> list:
    """The six built-in scenarios at one scale, each under its own seed
    derived from ``seed`` — six independent days, not six views of one."""
    names = scenario_names()
    return [
        compile_scenario(
            get_scenario(name).with_scale(trips, drivers).with_seed(seed * len(names) + i))
        for i, name in enumerate(names)
    ]


def fingerprint(solution, rejected: Sequence[int] = ()) -> str:
    """Digest of a merged outcome: every plan's driver, task list and profit
    (``repr`` of a float round-trips), plus the rejected orders."""
    digest = hashlib.sha256()
    for plan in solution.plans:
        digest.update(f"{plan.driver_id}|{plan.task_indices}|{plan.profit!r}\n".encode())
    digest.update(repr(tuple(rejected)).encode())
    return digest.hexdigest()


class Outcome(NamedTuple):
    """What one stream or one offline solve produced, kept until checked."""

    units: int  # dispatch units it covers
    orders: int
    solution: object
    rejected: Tuple[int, ...]


@dataclass
class Round:
    """One measured round.  ``segments_s`` tile the round's wall (so rounds
    can be compared position by position); ``units_s`` are the dispatch-unit
    latencies among them; ``outcomes`` are checked after the clock stops."""

    segments_s: List[float] = field(default_factory=list)
    units_s: List[float] = field(default_factory=list)
    outcomes: List[Outcome] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.segments_s)


@dataclass
class Measurement:
    """What a measured phase hands to ``run.py``."""

    #: The dispatch-unit latency sample (see :func:`latency_sample`;
    #: service: every paced order, once).
    units_ms: np.ndarray
    #: Per-round walls, for the reader.
    walls_s: List[float]
    #: The wall behind ``orders_per_s``: the sum over segment positions of
    #: the fastest repeat.
    round_wall_s: float
    orders_per_round: int
    submitted: int
    served: int
    objective_value: float
    attempted: int
    failed: int
    extras: Dict[str, object] = field(default_factory=dict)


def fastest(rounds: Sequence[Round], what: str) -> np.ndarray:
    """Per position, the fastest repeat across rounds.

    Every round repeats the same calls in the same order.  The reference VM
    alternates, seconds to minutes at a time, between a quiet state and one
    10-25% slower, so the *median* repeat of a position is slow whenever half
    the rounds were; noise here only ever adds time, and the fastest repeat
    is the one least touched by it (same-seed run-to-run spread of the round
    wall: 8-12% from medians, 3-5% from this).  Whole-round walls are still
    printed beside ``orders_per_s`` for the reader."""
    return np.array([getattr(r, what) for r in rounds]).min(axis=0)


def repeats(seconds: float, nominal_s: float, smoke: bool, least: int = 2) -> int:
    """How many repeats of a round that takes ``nominal_s`` on the reference
    box ``seconds`` buy.  The count comes from the command line alone, never
    from how fast this run happens to go: a fastest-of-N estimator must have
    the same N on every run and on every commit."""
    return 1 if smoke else max(least, int(seconds / nominal_s))


def latency_sample(rounds: Sequence[Round]) -> np.ndarray:
    """The sample ``dispatch_p50_ms`` / ``dispatch_p90_ms`` are taken over,
    in ms: per unit position its fastest repeat — unless a round has fewer
    than 100 units, where percentiles over positions would say nothing about
    a tail; then every unit of every round, as timed."""
    units = np.array([r.units_s for r in rounds]) * 1e3
    return units.min(axis=0) if units.shape[1] >= 100 else units.ravel()


def layer_metrics(recorders: Sequence[spans.SpanRecorder], untraced_wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of the traced rounds: each layer's self seconds (of
    the rounds, which repeat one input, the fastest), the span counts and
    counters of the last round, and how the traced wall divides."""
    per_round = [rec.self_times() for rec in recorders]
    root_name = recorders[-1].names[recorders[-1].root]
    out: Dict[str, float] = {}
    for name in sorted({name for seconds, _ in per_round for name in seconds} - {root_name}):
        out[name + "_s"] = min(s.get(name, 0.0) for s, _ in per_round)
    _seconds, last_counts = per_round[-1]
    for span_name, metric in spans.COUNT_METRICS.items():
        out[metric] = float(last_counts.get(span_name, 0))
    out.update(recorders[-1].counters)
    # Children included: the most a rewrite of ``append_tasks`` could save.
    out["market.streaming.append_total_s"] = min(
        rec.total_s("market.streaming.append") for rec in recorders)
    walls = [rec.wall_s() for rec in recorders]
    out["trace.wall_s"] = min(walls)
    out["trace.unattributed_fraction"] = statistics.median(
        s[root_name] / w for (s, _), w in zip(per_round, walls))
    out["trace.overhead_ratio"] = out["trace.wall_s"] / untraced_wall_s
    return out


class _Lockstep:
    """Closed loop, one client: the next unit starts when the last returns."""

    name = ""
    executor = "serial"
    transport = "pickle"
    #: Wall of one round on the reference box; sets the round count.
    round_s = 1.0

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        self.pool: Optional[PersistentWorkerPool] = None
        #: One fingerprint per outcome of a round, set by :meth:`reference`.
        self.expected: List[str] = []

    # -- to implement ---------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def reference(self) -> None:
        raise NotImplementedError

    def run_round(self) -> Round:
        raise NotImplementedError

    # -- shared ---------------------------------------------------------
    def failed_units(self, round_: Round) -> int:
        """Units of ``round_`` whose outcome differs from the reference."""
        return sum(
            outcome.units
            for outcome, expected in zip(round_.outcomes, self.expected)
            if fingerprint(outcome.solution, outcome.rejected) != expected
        )

    def measure(self, seconds: float) -> Measurement:
        rounds: List[Round] = []
        failed = 0
        for _ in range(repeats(seconds, self.round_s, self.smoke)):
            round_ = self.run_round()
            failed += self.failed_units(round_)
            orders = sum(o.orders for o in round_.outcomes)
            served = sum(o.solution.served_count for o in round_.outcomes)
            value = sum(o.solution.total_value for o in round_.outcomes)
            round_.outcomes = []  # solutions hold whole task networks
            rounds.append(round_)
        return Measurement(
            units_ms=latency_sample(rounds),
            walls_s=[r.wall_s for r in rounds],
            round_wall_s=float(fastest(rounds, "segments_s").sum()),
            orders_per_round=orders,
            submitted=orders,
            served=served,
            objective_value=value,
            attempted=sum(len(r.units_s) for r in rounds),
            failed=failed,
        )

    def trace(self, seconds: float, trace_path) -> Dict[str, float]:
        return self.trace_rounds(seconds, trace_path)[0]

    def trace_rounds(self, seconds: float, trace_path, probes=None) -> Tuple[Dict[str, float], int]:
        """Alternate untraced and traced rounds; returns the per-layer
        metrics and how many rounds were traced."""
        untraced: List[Round] = []
        recorders: List[spans.SpanRecorder] = []
        for _ in range(repeats(seconds, 2 * self.round_s, self.smoke)):
            untraced.append(self.run_round())
            untraced[-1].outcomes = []
            recorder = spans.SpanRecorder()
            wrappers = spans.install(recorder, probes)
            try:
                recorder.open_root(self.name)
                self.run_round()
                recorder.close_root()
            finally:
                wrappers.remove()
            recorders.append(recorder)
        out = layer_metrics(recorders, min(r.wall_s for r in untraced))
        out["distributed.pool.open_s"] = self.open_s(untraced)
        recorders[-1].dump(trace_path, {"workload": self.name, "seed": self.seed})
        return out, len(recorders)

    def open_s(self, rounds: Sequence[Round]) -> float:
        return 0.0

    def teardown(self) -> List[str]:
        """Close the pool and report what outlived it."""
        if self.pool is not None:
            self.pool.close()
            self.pool = None
        return leaks()


def leaks() -> List[str]:
    """Child processes still alive and this process's shm segments still in
    ``/dev/shm`` — both must be empty after a teardown."""
    found = [f"child process {p.pid}" for p in multiprocessing.active_children()]
    prefix = f"repro-shm-{os.getpid()}-"
    if os.path.isdir("/dev/shm"):
        found += [f"/dev/shm/{n}" for n in os.listdir("/dev/shm") if n.startswith(prefix)]
    return found


# ----------------------------------------------------------------------
# offline-days
# ----------------------------------------------------------------------
class OfflineDays(_Lockstep):
    """Six cold offline days per round; unit = one cold day."""

    name = "offline-days"
    round_s = 1.5

    def setup(self) -> None:
        self.days = compile_days(self.seed, *((150, 20) if self.smoke else (1000, 100)))
        self.pool = PersistentWorkerPool(executor="serial")
        self.warm_up = self.run_round()

    def reference(self) -> None:
        # Greedy is deterministic: the warm-up round's outcome is what every
        # measured round must repeat.
        self.expected = [fingerprint(o.solution, o.rejected) for o in self.warm_up.outcomes]
        self.warm_up = None  # six solutions hold six task networks

    def failed_units(self, round_: Round) -> int:
        infeasible = sum(1 for o in round_.outcomes if not o.solution.is_feasible())
        return max(infeasible, super().failed_units(round_))

    def run_round(self) -> Round:
        round_ = Round()
        for day in self.days:
            start = _clock()
            # A fresh instance: its task network and task maps are built
            # lazily inside the solve, as on the first solve of a new day.
            instance = MarketInstance(
                drivers=day.drivers, tasks=day.tasks, cost_model=day.instance.cost_model
            )
            coordinator = DistributedCoordinator(
                SpatialPartitioner(day.region, *GRID), solver_name="greedy", executor="serial"
            )
            result = coordinator.solve(instance, pool=self.pool)
            elapsed = _clock() - start
            round_.segments_s.append(elapsed)
            round_.units_s.append(elapsed)
            round_.outcomes.append(Outcome(1, instance.task_count, result.solution, ()))
        return round_


# ----------------------------------------------------------------------
# stream-day and epochs-shm
# ----------------------------------------------------------------------
class _Streams(_Lockstep):
    """Streams driven batch by batch; unit = one arrival batch absorbed."""

    window_s = 60.0
    worker_count: Optional[int] = None

    def __init__(self, seed: int, smoke: bool = False, executor: Optional[str] = None) -> None:
        super().__init__(seed, smoke)
        if executor is not None:
            self.executor = executor

    def compile_days(self) -> list:
        raise NotImplementedError

    def setup(self) -> None:
        self.days = self.compile_days()
        self.batches = [day.arrival_batches(self.window_s) for day in self.days]
        self.config = BatchConfig(window_s=self.window_s)
        self.pool = PersistentWorkerPool(
            executor=self.executor, worker_count=self.worker_count, transport=self.transport
        )
        # Warm-up: the head of the first stream, through the measured path.
        self.run_stream(self.days[0], self.batches[0][:250], Round())

    def reference(self) -> None:
        """A pipelined serial ``solve_stream`` of the same batches."""
        self.expected = []
        with PersistentWorkerPool(executor="serial") as pool:
            for day, batches in zip(self.days, self.batches):
                coordinator = DistributedCoordinator(
                    SpatialPartitioner(day.region, *GRID), executor="serial"
                )
                result = coordinator.solve_stream(
                    day.instance, batches, config=self.config, pool=pool
                )
                self.expected.append(fingerprint(result.solution, result.rejected_tasks))

    def run_stream(self, day, batches, round_: Round):
        """Stream ``batches`` through the pool, appending to ``round_`` one
        segment for the open, one per batch and one for the finish."""
        coordinator = DistributedCoordinator(
            SpatialPartitioner(day.region, *GRID), executor=self.executor, transport=self.transport
        )
        mark = _clock()
        session = coordinator.open_stream(
            day.drivers, day.instance.cost_model, config=self.config, pool=self.pool
        )
        with session:
            now = _clock()
            round_.segments_s.append(now - mark)
            mark = now
            for batch in batches:
                for pending in session.append_batch(batch):
                    pending.future.result()
                now = _clock()
                round_.segments_s.append(now - mark)
                round_.units_s.append(now - mark)
                mark = now
            result = session.finish()
            round_.segments_s.append(_clock() - mark)
        return result

    def run_round(self) -> Round:
        round_ = Round()
        for day, batches in zip(self.days, self.batches):
            result = self.run_stream(day, batches, round_)
            round_.outcomes.append(
                Outcome(len(batches), len(day.tasks), result.solution, result.rejected_tasks)
            )
        return round_

    def open_s(self, rounds: Sequence[Round]) -> float:
        """``open_stream`` until the first append is accepted, per stream."""
        samples = []
        for round_ in rounds:
            position = 0
            for batches in self.batches:
                samples.append(round_.segments_s[position] + round_.segments_s[position + 1])
                position += len(batches) + 2
        return statistics.median(samples)


class StreamDay(_Streams):
    """One long stream of tiny batches: the task-map append regime."""

    name = "stream-day"
    round_s = 6.0

    def compile_days(self) -> list:
        trips, drivers = (300, 40) if self.smoke else (2000, 200)
        spec = get_scenario("morning-surge").with_scale(trips, drivers).with_seed(self.seed)
        return [compile_scenario(spec)]


class EpochsShm(_Streams):
    """Short epochs streamed back to back on one warm process pool over
    shared memory: the wire's largest share."""

    name = "epochs-shm"
    executor = "process"
    transport = "shm"
    window_s = 300.0
    worker_count = 1
    round_s = 4.75

    def compile_days(self) -> list:
        return compile_days(self.seed, *((150, 20) if self.smoke else (600, 60)))

    def measure(self, seconds: float) -> Measurement:
        before = self.pool.stats.pickle_fallbacks
        measurement = super().measure(seconds)
        fallbacks = self.pool.stats.pickle_fallbacks - before
        measurement.extras["pickle_fallbacks"] = fallbacks
        measurement.failed += fallbacks
        return measurement

    def trace(self, seconds: float, trace_path) -> Dict[str, float]:
        """Compute layers from a serial twin, the wire from this process
        pool: worker-side spans cannot be seen from outside the program."""
        stats = self.pool.stats

        def counters():
            return (stats.bytes_over_pipe, stats.shm_bytes, stats.segments_created,
                    stats.segment_reuses, stats.pickle_fallbacks)

        rounds: List[Round] = []
        for _ in range(repeats(0.3 * seconds, self.round_s, self.smoke)):
            before = counters()
            rounds.append(self.run_round())
            rounds[-1].outcomes = []
        pipe, shm, created, reuses, fallbacks = (
            now - then for now, then in zip(counters(), before))

        twin = EpochsShm(self.seed, self.smoke, executor="serial")
        twin.setup()
        deltas: list = []
        collect = {("repro.distributed.payload", "delta_from_tasks"):
                   lambda _start, _args, delta: deltas.append(delta)}
        try:
            out, traced_rounds = twin.trace_rounds(0.7 * seconds, trace_path, collect)
        finally:
            twin.teardown()
        serial_wall = out["trace.wall_s"] / out["trace.overhead_ratio"]
        overhead = min(r.wall_s for r in rounds) - serial_wall
        batch_count = sum(len(b) for b in self.batches)
        ship_s, attach_s = transport_probe(deltas[-(len(deltas) // traced_rounds):])
        out.update({
            "distributed.pool.open_s": self.open_s(rounds),
            "distributed.pool.wire_overhead_s": overhead,
            "distributed.pool.wire_overhead_per_batch_ms": overhead / batch_count * 1e3,
            "distributed.transport.ship_s": ship_s,
            "distributed.transport.attach_s": attach_s,
            "distributed.transport.bytes_over_pipe": float(pipe),
            "distributed.transport.shm_bytes": float(shm),
            "distributed.transport.segment_reuse_ratio": reuses / max(1, created + reuses),
            "distributed.transport.pickle_fallbacks": float(fallbacks),
        })
        return out


def transport_probe(deltas) -> Tuple[float, float]:
    """Ship and attach every delta of one round through a private shipper,
    in this process: the coordinator's and the worker's halves of the shm
    transport, timed where both can be seen."""
    shipper = ShmShipper()
    ship_s = attach_s = 0.0
    try:
        for delta in deltas:
            t0 = _clock()
            descriptor = shipper.ship_delta(delta)
            t1 = _clock()
            attached = delta_from_descriptor(descriptor)
            t2 = _clock()
            tasks_from_delta(attached)  # read the views, as the worker does
            shipper.release(descriptor.segment)
            ship_s += t1 - t0
            attach_s += t2 - t1
    finally:
        shipper.close()
    return ship_s, attach_s


# ----------------------------------------------------------------------
# service-paced
# ----------------------------------------------------------------------
def tiles(stamps: np.ndarray, start: float, end: float) -> List[float]:
    """The segments the batch completions in ``stamps`` cut ``[start, end]``
    into: they tile its wall as the per-batch segments tile a stream's."""
    inside = stamps[np.searchsorted(stamps, start):np.searchsorted(stamps, end, side="right")]
    return np.diff(np.concatenate(([start], inside, [end]))).tolist()


class ServicePaced:
    """The asyncio ``DispatchService`` under two cities' interleaved orders.

    The cities run half an epoch out of step (the second city's first epoch
    is a half one, flooded as the warm-up), so every *block* — half an epoch
    of each city, interleaved one to one — ends with exactly one epoch
    rotation, and two blocks make a *round*: one whole epoch of each city.
    A rotation opens a fresh stream, so every epoch of a city replays the
    same orders and every round repeats the same work.  Phase A paces a round
    on a fixed open-loop schedule and times each order from the instant it
    was due; phase B floods rounds as fast as ``submit`` returns.
    """

    name = "service-paced"
    executor = "serial"
    transport = "pickle"
    cities = ("city0", "city1")
    #: Orders per second of the open-loop schedule, both cities together
    #: (about a third of what the reference box sustains).
    rate = 600.0
    #: An order slower than this (or never completed) is over the limit.
    limit_s = 0.25
    #: Wall of one flooded round on the reference box; sets the round count.
    round_s = 3.3

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        self.per_epoch, self.drivers = (200, 30) if smoke else (3000, 200)

    # -- inputs ---------------------------------------------------------
    def setup(self) -> None:
        self.soak = SoakConfig(
            orders=self.per_epoch * len(self.cities),
            cities=len(self.cities),
            epochs=1,
            drivers_per_city=self.drivers,
            window_s=120.0,
            epoch_span_s=14_400.0,
            backpressure_depth=8,
            max_batch=512,
            seed=self.seed,
        )
        fleets, orders = synthesize_city_orders(self.soak)
        half = self.per_epoch // 2
        first, second = ([(city, task) for task in orders[city][0]] for city in self.cities)

        def block(a, b, rotate_city):
            return [order for pair in zip(a, b) for order in pair], rotate_city

        warm_up = block(first[:half], second[:half], self.cities[1])
        self.round = [block(first[half:], second[:half], self.cities[0]),
                      block(first[:half], second[half:], self.cities[1])]
        self.receipts: list = []
        self.runner = asyncio.Runner()
        self.runner.run(self._start(fleets, warm_up))

    async def _start(self, fleets, warm_up) -> None:
        soak = self.soak
        self.service = DispatchService(backpressure_depth=soak.backpressure_depth)
        self.service.start()
        for city in self.cities:
            self.service.register_city(
                city, fleets[city], region=soak.region, rows=GRID[0], cols=GRID[1],
                executor=self.executor, config=BatchConfig(window_s=soak.window_s),
                max_batch=soak.max_batch, transport=self.transport,
            )
        await self._flood(*warm_up)  # puts the cities out of step

    def reference(self) -> None:
        """The service is its own reference: ``replay_ingested`` of the
        batches it recorded, run after the clock stops."""

    # -- driving --------------------------------------------------------
    async def _flood(self, block, rotate_city) -> Tuple[float, float]:
        start = _clock()
        for city, task in block:
            self.receipts.append((None, await self.service.submit(city, task)))
        await self.service.rotate(rotate_city)
        return start, _clock()

    async def _flood_rounds(self, count: int) -> List[List[Tuple[float, float]]]:
        return [[await self._flood(*block) for block in self.round] for _ in range(count)]

    def _tiled(self, rounds) -> List[Round]:
        """Flooded rounds as :class:`Round`s: each block's wall cut at the
        batch completions inside it (one stamp per shipped batch, and the
        same batches every round), so rounds compare position by position."""
        stamps = np.unique([r.completed_s for _due, r in self.receipts if r.completed_s is not None])
        return [
            Round(segments_s=[s for start, end in blocks for s in tiles(stamps, start, end)])
            for blocks in rounds
        ]

    async def _pace(self, blocks) -> Dict[str, list]:
        """Open loop: order ``k`` is due at ``k / rate`` whatever the service
        is doing, so a stall (an append, a rotation) is charged to every
        order that came due during it."""
        lag_s, rotate_s, paced = [], [], []
        start = _clock()
        k = 0
        for block, rotate_city in blocks:
            for city, task in block:
                due = start + k / self.rate
                k += 1
                delay = due - _clock()
                if delay > 0:
                    await asyncio.sleep(delay)
                lag_s.append(max(0.0, _clock() - due))
                paced.append((due, await self.service.submit(city, task)))
            mark = _clock()
            await self.service.rotate(rotate_city)
            rotate_s.append(_clock() - mark)
        self.receipts.extend(paced)
        return {"lag_s": lag_s, "rotate_s": rotate_s, "paced": paced}

    def _paced_blocks(self, seconds: float) -> list:
        """Phase A's half of ``seconds``, in whole rounds."""
        round_s = len(self.cities) * self.per_epoch / self.rate
        return self.round * repeats(0.5 * seconds, round_s, self.smoke, least=1)

    def measure(self, seconds: float) -> Measurement:
        return self.runner.run(self._measure(seconds))

    async def _measure(self, seconds: float) -> Measurement:
        self.receipts = []  # the warm-up's orders are not measured units
        phase_a = await self._pace(self._paced_blocks(seconds))
        flooded = await self._flood_rounds(repeats(0.5 * seconds, self.round_s, self.smoke))
        # -- the clock has stopped; check ------------------------------
        await self.service.finish()  # closes the half epoch the first city is in
        rounds = self._tiled(flooded)
        latencies = [
            (receipt.completed_s - due) if receipt.completed_s is not None else float("inf")
            for due, receipt in phase_a["paced"]
        ]
        failed = sum(1 for _due, receipt in self.receipts if receipt.completed_s is None)
        served = 0
        value = 0.0
        for runtime in self.service.runtimes().values():
            # Every whole epoch of a city took the same orders, paced or
            # flooded, and must reproduce the serial replay of the first one's
            # recorded batches (contract 15) plan for plan.
            whole = [(index, result) for index, result in enumerate(runtime.results)
                     if result.solution.instance.task_count == self.per_epoch]
            replayed = replay_ingested(runtime, whole[0][0])
            expected = fingerprint(replayed.solution, replayed.rejected_tasks)
            for _index, result in whole:
                report = result.report
                if (report.served_count + report.rejected_count != self.per_epoch
                        or fingerprint(result.solution, result.rejected_tasks) != expected):
                    failed += self.per_epoch
            served += whole[0][1].report.served_count
            value += whole[0][1].solution.total_value
        finite = np.array([x for x in latencies if x != float("inf")]) * 1e3
        return Measurement(
            units_ms=finite,
            walls_s=[r.wall_s for r in rounds],
            round_wall_s=float(fastest(rounds, "segments_s").sum()),
            orders_per_round=len(self.cities) * self.per_epoch,
            submitted=len(self.cities) * self.per_epoch,
            served=served,
            objective_value=value,
            attempted=len(self.receipts),
            failed=min(failed, len(self.receipts)),
            extras={
                "paced_orders": len(latencies),
                "generator_lag_p99_ms": float(np.percentile(phase_a["lag_s"], 99)) * 1e3,
                "rotate_s": phase_a["rotate_s"],
            },
        )

    # -- traced run -----------------------------------------------------
    def trace(self, seconds: float, trace_path) -> Dict[str, float]:
        return self.runner.run(self._trace(seconds, trace_path))

    async def _trace(self, seconds: float, trace_path) -> Dict[str, float]:
        """Phase A with probes on ``push`` and ``append_batch`` splits each
        order's latency into queue wait, batch wait and append; flooded
        rounds, alternately untraced and traced, give the layers' seconds."""
        pushed: Dict[str, float] = {}
        appended: Dict[str, float] = {}

        def on_push(at, args, _result):
            pushed[args[1].task_id] = at

        def on_append(at, args, _result):
            for task in args[1]:
                appended[task.task_id] = at

        probes = spans.Wrappers(spans.SpanRecorder())  # its spans are not read
        probes.wrap(WindowBatcher, "push", "push", on_push)
        probes.wrap(DistributedStreamSession, "append_batch", "append_batch", on_append)
        try:
            phase_a = await self._pace(self._paced_blocks(seconds))
        finally:
            probes.remove()
        untraced: List[float] = []
        recorders: List[spans.SpanRecorder] = []
        for _ in range(repeats(0.5 * seconds, 2 * self.round_s, self.smoke)):
            blocks = (await self._flood_rounds(1))[0]
            untraced.append(blocks[-1][1] - blocks[0][0])
            recorder = spans.SpanRecorder()
            wrappers = spans.install(recorder)
            try:
                recorder.open_root(self.name)
                await self._flood_rounds(1)
                recorder.close_root()
            finally:
                wrappers.remove()
            recorders.append(recorder)
        await self.service.finish()  # closes the half epoch the first city is in

        queue_ms, batch_ms, append_ms, total_ms = [], [], [], []
        for due, receipt in phase_a["paced"]:
            # Orders still in an open batch when pacing stopped were shipped
            # after the probes came off; they are left out of the split.
            if receipt.completed_s is None or receipt.task_id not in appended:
                continue
            push_at, append_at = pushed[receipt.task_id], appended[receipt.task_id]
            queue_ms.append((push_at - receipt.submitted_s) * 1e3)
            batch_ms.append((append_at - push_at) * 1e3)
            append_ms.append((receipt.completed_s - append_at) * 1e3)
            total_ms.append((receipt.completed_s - due) * 1e3)
        over = sum(
            1 for due, receipt in phase_a["paced"]
            if receipt.completed_s is None or receipt.completed_s - due > self.limit_s
        )
        out = layer_metrics(recorders, min(untraced))
        recorders[-1].dump(trace_path, {"workload": self.name, "seed": self.seed})
        health = self.service.health()
        out.update({
            "service.gateway.queue_wait_p50_ms": statistics.median(queue_ms),
            "service.batcher.batch_wait_p50_ms": statistics.median(batch_ms),
            "service.gateway.append_p50_ms": statistics.median(append_ms),
            "service.gateway.dispatch_p99_ms": float(np.percentile(total_ms, 99)),
            "service.gateway.generator_lag_p99_ms": float(np.percentile(phase_a["lag_s"], 99)) * 1e3,
            "service.gateway.over_limit_fraction": over / len(phase_a["paced"]),
            "service.gateway.rotate_s": statistics.median(phase_a["rotate_s"]),
            "service.gateway.backpressure_events": float(sum(
                city["backpressure_events"] for city in health["cities"].values())),
        })
        return out

    def teardown(self) -> List[str]:
        self.runner.run(self.service.aclose())
        self.runner.close()
        return leaks()


WORKLOADS = {w.name: w for w in (OfflineDays, StreamDay, EpochsShm, ServicePaced)}
