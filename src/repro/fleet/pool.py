"""Worker-process pooling: the shareable WorkerPool.

:class:`WorkerPool` is a rebuildable ``ProcessPoolExecutor`` wrapper
that can *outlive a single fleet run*, and the repo's only process
pool.  The fleet driver uses a private one per run by default; the
``repro serve`` daemon owns one and hands it to every job's
:class:`repro.fleet.Fleet`, so warm worker processes persist across
jobs; figure regeneration (``python -m repro figures --jobs N``) maps
its experiment cells over a private one.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Callable, Optional, TypeVar

from repro.errors import EvaluationError

R = TypeVar("R")


def terminate_executor(executor: ProcessPoolExecutor) -> None:
    """Stop a pool's workers for real, hung ones included.

    ``executor.shutdown`` never stops a worker stuck in user code, so
    every teardown path — normal completion, deadline rebuild,
    exception, graceful interruption — must terminate the processes
    outright or a hung shard outlives the run as a leaked process.
    """
    processes = list(getattr(executor, "_processes", {}).values())
    executor.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        process.terminate()
    for process in processes:
        process.join(timeout=5.0)
        if process.is_alive():
            process.kill()
            process.join()


class WorkerPool:
    """A rebuildable process pool, shareable across fleet runs.

    ``executor`` is created lazily on first use, so a pool can be
    constructed cheaply at daemon startup.  :meth:`rebuild` terminates
    the current workers (the only way to reclaim a hung shard's slot)
    and provisions a fresh executor — the pool object itself stays
    usable, which is what lets a long-running daemon recover from a
    hang or drop a cancelled job's in-flight shards without losing the
    pool it shares across jobs.  :meth:`shutdown` ends the pool's life.
    """

    def __init__(self, workers: int, initializer: Optional[Callable[[], None]] = None):
        if workers <= 0:
            raise EvaluationError(f"worker pool needs >= 1 worker, got {workers}")
        self.workers = workers
        # Default lazily to the fleet worker's signal-disposition reset
        # (importing it at module load would be circular: worker pulls
        # in the evaluation package, which imports this module).
        self._initializer = initializer
        self._executor: Optional[ProcessPoolExecutor] = None
        self._closed = False
        self._in_flight = 0
        self._in_flight_lock = threading.Lock()

    @property
    def executor(self) -> ProcessPoolExecutor:
        if self._closed:
            raise EvaluationError("worker pool is shut down")
        if self._executor is None:
            if self._initializer is None:
                from repro.fleet.worker import ignore_interrupts

                self._initializer = ignore_interrupts
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, initializer=self._initializer
            )
        return self._executor

    def submit(self, fn: Callable[..., R], *args) -> "Future[R]":
        """Submit work, tracking the in-flight count.

        :attr:`in_flight` is what pool-utilization metrics report, so
        every path that resolves a future — success, worker exception,
        cancellation, pool breakage — must decrement it; the done
        callback fires on all of them.
        """
        future = self.executor.submit(fn, *args)
        with self._in_flight_lock:
            self._in_flight += 1
        future.add_done_callback(self._settle_in_flight)
        return future

    def _settle_in_flight(self, _future: "Future") -> None:
        with self._in_flight_lock:
            self._in_flight -= 1

    @property
    def in_flight(self) -> int:
        """Submitted-but-unresolved futures (pool utilization)."""
        with self._in_flight_lock:
            return self._in_flight

    def rebuild(self) -> None:
        """Terminate the current workers and start a fresh executor."""
        if self._executor is not None:
            terminate_executor(self._executor)
            self._executor = None
        if not self._closed:
            _ = self.executor

    def shutdown(self) -> None:
        """Terminate the workers and refuse further use."""
        self._closed = True
        if self._executor is not None:
            terminate_executor(self._executor)
            self._executor = None

