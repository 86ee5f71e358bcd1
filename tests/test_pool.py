"""Unit tests for the pipe-fed worker pool (:class:`repro.fleet.WorkerPool`).

Worker death is exercised for real: a call ends its own worker with
``os._exit`` or the test kills a worker with SIGKILL, and the pool must
fail the right futures, refuse work until rebuilt, and leak neither
processes nor file descriptors across rebuilds.
"""

import multiprocessing
import os
import signal
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import EvaluationError
from repro.fleet import WorkerPool
from repro.fleet.pool import WORKER_DIED, SiblingDied
from repro.sim.random import derive_seed


def _fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _fail(message: str) -> None:
    raise ValueError(message)


def _exit_after(delay_s: float) -> None:
    time.sleep(delay_s)
    os._exit(1)


@pytest.fixture
def pool():
    pool = WorkerPool(2)
    yield pool
    pool.shutdown()


class TestCalls:
    def test_results_come_back_in_submit_order(self, pool):
        # More calls than workers: the overflow waits in the pool's queue.
        futures = [pool.submit(derive_seed, 1, str(i)) for i in range(9)]
        assert [f.result(timeout=30) for f in futures] == [
            derive_seed(1, str(i)) for i in range(9)
        ]

    def test_exception_raised_with_its_own_type(self, pool):
        with pytest.raises(ValueError, match="boom"):
            pool.submit(_fail, "boom").result(timeout=30)
        # A raising call leaves its worker healthy.
        assert pool.submit(derive_seed, 1, "x").result(timeout=30) == derive_seed(1, "x")

    def test_workers_persist_across_calls(self, pool):
        pids = {pool.submit(os.getpid).result(timeout=30) for _ in range(8)}
        assert pids <= set(pool.pids)
        assert len(pool.pids) == 2

    def test_workers_start_on_first_submit(self):
        pool = WorkerPool(1)
        try:
            assert pool.pids == ()
            pool.submit(os.getpid).result(timeout=30)
            assert len(pool.pids) == 1
        finally:
            pool.shutdown()


class TestWorkerDeath:
    def test_dead_workers_call_fails_with_broken_pool(self, pool):
        bystander = pool.submit(time.sleep, 30)
        victim = pool.submit(_exit_after, 0.5)
        queued = pool.submit(derive_seed, 1, "queued")
        error = victim.exception(timeout=30)
        assert type(error) is BrokenProcessPool
        assert str(error) == WORKER_DIED
        # The healthy worker's call and the queued call fail too, as
        # bystanders (still BrokenProcessPool, so plain callers see one
        # failure type).
        for future in (bystander, queued):
            assert isinstance(future.exception(timeout=30), SiblingDied)

    def test_killed_worker_fails_its_call(self):
        pool = WorkerPool(1)
        try:
            future = pool.submit(time.sleep, 30)
            os.kill(pool.pids[0], signal.SIGKILL)
            assert type(future.exception(timeout=30)) is BrokenProcessPool
        finally:
            pool.shutdown()

    def test_submits_fail_until_rebuild(self, pool):
        pool.submit(os._exit, 1).exception(timeout=30)
        for _ in range(2):
            with pytest.raises(BrokenProcessPool):
                pool.submit(derive_seed, 1, "x")
        dead = pool.pids
        pool.rebuild()
        assert pool.submit(derive_seed, 1, "x").result(timeout=30) == derive_seed(1, "x")
        assert not set(pool.pids) & set(dead)

    def test_rebuilds_leak_no_process_and_no_fd(self):
        before = _fds()
        pool = WorkerPool(2)
        try:
            for round_ in range(5):
                pool.submit(derive_seed, 1, str(round_)).result(timeout=30)
                if round_ % 2:
                    pool.submit(os._exit, 1).exception(timeout=30)
                pool.rebuild()
                assert multiprocessing.active_children() == []
                assert _fds() == before
        finally:
            pool.shutdown()
        assert _fds() == before


class TestConcurrentPools:
    def test_two_submitting_threads_lose_no_call(self):
        """More workers than cores, two threads submitting at once, and a
        tiny switch interval: every call resolves exactly once with its
        own result, and the in-flight gauge drains to zero."""
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        pool = WorkerPool(3)
        futures: dict[str, object] = {}

        def submit_many(prefix: str) -> None:
            for i in range(150):
                key = f"{prefix}{i}"
                futures[key] = pool.submit(derive_seed, 7, key)

        try:
            submitters = [threading.Thread(target=submit_many, args=(p,)) for p in "ab"]
            for thread in submitters:
                thread.start()
            for thread in submitters:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert len(futures) == 300
            for key, future in futures.items():
                assert future.result(timeout=60) == derive_seed(7, key)
            deadline = time.monotonic() + 10.0
            while pool.in_flight and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pool.in_flight == 0
        finally:
            sys.setswitchinterval(switch)
            pool.shutdown()

    def test_pools_started_together_stay_independent(self):
        """Pools forking on several threads at once (one per serve lane)
        must not leak pipe ends into each other's workers: a leaked end
        hides a worker's death, and stalls shutting its pool down until
        the *other* pool's workers exit."""
        pools = [WorkerPool(1) for _ in range(3)]
        try:
            starters = [
                threading.Thread(target=lambda p=p: p.submit(os.getpid).result(timeout=30))
                for p in pools
            ]
            for thread in starters:
                thread.start()
            for thread in starters:
                thread.join(timeout=30)
                assert not thread.is_alive()
            for pool in pools:
                victim = pool.submit(time.sleep, 30)
                os.kill(pool.pids[0], signal.SIGKILL)
                assert type(victim.exception(timeout=10)) is BrokenProcessPool
                started = time.monotonic()
                pool.shutdown()
                assert time.monotonic() - started < 3.0
        finally:
            for pool in pools:
                pool.shutdown()


class TestLifecycle:
    def test_rebuild_terminates_a_hung_call(self, pool):
        hung = pool.submit(time.sleep, 60)
        started = time.monotonic()
        pool.rebuild()
        assert time.monotonic() - started < 10.0
        assert isinstance(hung.exception(timeout=5), BrokenProcessPool)
        assert pool.in_flight == 0

    def test_shutdown_refuses_further_work(self):
        pool = WorkerPool(1)
        pool.submit(derive_seed, 1, "x").result(timeout=30)
        pool.shutdown()
        assert multiprocessing.active_children() == []
        with pytest.raises(EvaluationError, match="shut down"):
            pool.submit(derive_seed, 1, "x")

    def test_rejects_zero_workers(self):
        with pytest.raises(EvaluationError, match=">= 1 worker"):
            WorkerPool(0)
