"""The process slot's wire: one command loop per worker, one FIFO of futures.

* a call whose callable, arguments, result or exception does not pickle
  fails on its own future; the next call on the slot gets its own answer,
  and the pool stays healthy;
* concurrent submitters each get their own answers back;
* a worker death with a backlog resolves every outstanding future on every
  slot (each done-callback firing once), and the pool is already torn down
  by then;
* an explicit pool width below 1 is refused instead of meaning "one per
  core".
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
import time
from concurrent.futures import Future, wait

import pytest

from repro.distributed import (
    DistributedCoordinator,
    PersistentWorkerPool,
    SpatialPartitioner,
    WorkerPoolBrokenError,
)
from repro.geo import PORTO


def _echo(value):
    return value


def _return_lock():
    return threading.Lock()


class _LockedError(Exception):
    """An exception that carries an unpicklable payload."""


def _raise_with_lock():
    raise _LockedError(threading.Lock())


class _TwoArgError(Exception):
    """Pickles fine but does not unpickle: ``args`` holds one of two."""

    def __init__(self, first, second):
        super().__init__(first)
        self.second = second


def _raise_two_arg_error():
    raise _TwoArgError("first", "second")


def _exit_after(delay_s):
    """Die like an OOM-killed worker, once the calls behind are queued."""
    time.sleep(delay_s)
    os._exit(1)


class TestPicklingFailuresStayLocal:
    @pytest.mark.parametrize(
        "fn, args",
        [
            pytest.param(lambda: 1, (), id="lambda-callable"),
            pytest.param(_echo, (threading.Lock(),), id="lock-argument"),
            pytest.param(_return_lock, (), id="lock-result"),
            pytest.param(_raise_with_lock, (), id="exception-holding-a-lock"),
        ],
    )
    def test_only_the_failing_call_fails(self, fn, args):
        with PersistentWorkerPool(executor="process", worker_count=1) as pool:
            assert pool.submit(0, _echo, "before").result(timeout=10) == "before"
            failing = pool.submit(0, fn, *args)
            following = pool.submit(0, _echo, "after")
            with pytest.raises(Exception):
                failing.result(timeout=10)
            # The slot's answers stay aligned with its calls.
            assert following.result(timeout=10) == "after"
            assert pool.submit(0, _echo, 7).result(timeout=10) == 7
            assert not pool.broken

    def test_a_reply_that_does_not_unpickle_fails_its_call_only(self):
        with PersistentWorkerPool(executor="process", worker_count=1) as pool:
            failing = pool.submit(0, _raise_two_arg_error)
            following = pool.submit(0, _echo, "after")
            with pytest.raises(TypeError):
                failing.result(timeout=10)
            assert following.result(timeout=10) == "after"
            assert not pool.broken


class TestConcurrentSubmitters:
    def test_every_answer_reaches_its_own_future(self):
        """Four threads submit to three slots (more than this box's cores)
        with a tiny switch interval: a reply resolved into the wrong future
        of a slot's FIFO would hand some caller another caller's value."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with PersistentWorkerPool(executor="process", worker_count=3) as pool:

                def submitter(base, out):
                    out.extend(
                        (value, pool.submit(value, _echo, value))
                        for value in range(base, base + 200)
                    )

                submitted = [[] for _ in range(4)]
                threads = [
                    threading.Thread(target=submitter, args=(1000 * k, submitted[k]))
                    for k in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                for calls in submitted:
                    assert len(calls) == 200
                    for value, future in calls:
                        assert future.result(timeout=10) == value
        finally:
            sys.setswitchinterval(interval)


class TestWorkerDeathWithABacklog:
    def test_every_future_resolves_once_and_the_pool_is_torn_down(self):
        pool = PersistentWorkerPool(executor="process", worker_count=2)
        try:
            assert pool.submit(1, os.getpid).result(timeout=10) > 0
            fired = []
            futures = [pool.submit(1, time.sleep, 1.0)]  # in flight at the death
            futures.append(pool.submit(0, _exit_after, 0.2))
            futures.extend(pool.submit(0, _echo, i) for i in range(4))
            for future in futures:
                future.add_done_callback(fired.append)
            done, not_done = wait(futures, timeout=10)
            assert not not_done
            for future in futures:
                if not future.cancelled():
                    assert isinstance(future.exception(), WorkerPoolBrokenError)
            assert all(fired.count(future) == 1 for future in futures)
            assert len(fired) == len(futures)
            with pytest.raises(WorkerPoolBrokenError, match="slot 0/2"):
                futures[1].result()
            # By the time any caller sees the death the pool is closed and
            # no worker is left.
            assert pool.closed and pool.broken
            assert multiprocessing.active_children() == []
            with pytest.raises(WorkerPoolBrokenError, match="died mid-call"):
                pool.submit(1, os.getpid)
        finally:
            pool.close()
        assert multiprocessing.active_children() == []


class TestOneFutureType:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_both_policies_return_a_plain_future(self, executor):
        with PersistentWorkerPool(executor=executor, worker_count=1) as pool:
            future = pool.submit(0, _echo, 3)
            assert type(future) is Future
            assert future.result(timeout=10) == 3


class TestWorkerCount:
    @pytest.mark.parametrize("count", [0, -2])
    def test_pool_refuses_a_width_below_one(self, count):
        with pytest.raises(ValueError, match="at least 1"):
            PersistentWorkerPool(executor="process", worker_count=count)

    @pytest.mark.parametrize("count", [0, -2])
    def test_coordinator_refuses_a_width_below_one(self, count):
        with pytest.raises(ValueError, match="at least 1"):
            DistributedCoordinator(
                SpatialPartitioner(PORTO, 1, 1), executor="process", max_workers=count
            )

    def test_none_still_means_one_per_cpu(self):
        pool = PersistentWorkerPool(executor="process", worker_count=None)
        assert pool.worker_count == (os.cpu_count() or 1)
        pool.close()
