"""Worker-process pooling: the shareable WorkerPool.

:class:`WorkerPool` is the repo's only process pool: persistent worker
processes, each fed over one duplex :mod:`multiprocessing` pipe, that
can *outlive a single fleet run*.  The fleet driver uses a private one
per run by default; the ``repro serve`` daemon owns one per lane and
hands it to every job's :class:`repro.fleet.Fleet`, so warm worker
processes persist across jobs.  Figure regeneration
(``python -m repro figures --jobs N``) runs its experiment cells as a
grid fleet, so it too gets the driver's private pool.

A call travels as one pickled ``(fn, args)`` message straight onto an
idle worker's pipe (or into the pool's FIFO queue while every worker is
busy) and comes back as one pickled ``(ok, value)`` reply.  One reader
thread per generation of workers waits on every pipe and process
sentinel: it hands a freed worker its next queued call, then completes
the finished call's :class:`~concurrent.futures.Future`.  There is no
management thread and no queue feeder between a submit and the worker.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
from collections import deque
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.connection import Connection, wait
from multiprocessing.reduction import ForkingPickler
from typing import Callable, Optional, TypeVar

from repro.errors import EvaluationError

R = TypeVar("R")

#: Serialises worker start-up across pools.  A fork on another thread
#: between creating a worker's pipe and the parent closing its copy of
#: the child end would leak that end (and the sentinel's write end) into
#: the other pool's worker, and this worker's death would then never
#: show as EOF or a ready sentinel.
_FORK_LOCK = threading.Lock()

#: What a call whose own worker died raises (the message
#: ``ProcessPoolExecutor`` used, so failure records read the same).
WORKER_DIED = (
    "A process in the process pool was terminated abruptly while the "
    "future was running or pending."
)


class SiblingDied(BrokenProcessPool):
    """A call that failed only because *another* worker of its
    generation died: it was queued, or running on a healthy worker.

    Callers that charge retries charge the plain
    :class:`BrokenProcessPool` calls (the dead worker's own) and rerun
    these for free.
    """


def _serve(conn: Connection, initializer: Optional[Callable[[], None]],
           inherited: tuple[Connection, ...]) -> None:
    """Worker main loop: run pickled calls until the pipe closes."""
    # A forked worker holds copies of the parent's ends of its siblings'
    # pipes (and of its own); dropping them means every worker sees EOF
    # as soon as the driver's end goes away.
    for other in inherited:
        other.close()
    if initializer is not None:
        initializer()
    while True:
        try:
            message = conn.recv_bytes()
        except EOFError:
            return
        try:
            fn, args = pickle.loads(message)
            reply = (True, fn(*args))
        except BaseException as exc:  # noqa: BLE001 - every failure goes back to the caller
            reply = (False, exc)
        try:
            data = ForkingPickler.dumps(reply)
        except Exception as exc:  # noqa: BLE001 - an unpicklable result or exception
            data = ForkingPickler.dumps((False, RuntimeError(repr(exc))))
        conn.send_bytes(data)


def _fail(futures: list[Future], exc: BaseException) -> None:
    """Fail calls that are running or still queued (queued ones a caller
    already cancelled stay cancelled)."""
    for future in futures:
        if future.running() or future.set_running_or_notify_cancel():
            future.set_exception(exc)


class _Workers:
    """One generation of worker processes and the thread that reads them."""

    def __init__(self, count: int, initializer: Optional[Callable[[], None]]):
        self.lock = threading.Lock()
        self.conns: list[Connection] = []
        self.processes: list[multiprocessing.Process] = []
        with _FORK_LOCK:
            try:
                for _ in range(count):
                    parent, child = multiprocessing.Pipe()
                    self.conns.append(parent)
                    process = multiprocessing.Process(
                        target=_serve, args=(child, initializer, tuple(self.conns)),
                        name="repro-pool-worker", daemon=True,
                    )
                    try:
                        process.start()
                    finally:
                        child.close()
                    self.processes.append(process)
            except BaseException:
                self._reap()  # e.g. fork failed: keep no half-started generation
                raise
        #: written once by :meth:`close` to wake the reader
        self.wake_r, self.wake_w = os.pipe()
        self.idle = list(range(count))
        #: worker index -> the future of the call it is running
        self.busy: dict[int, Future] = {}
        self.queue: deque[tuple[Future, memoryview]] = deque()
        self.broken = False
        self.closing = False
        self.reader = threading.Thread(
            target=self._read, name="repro-pool-reader", daemon=True
        )
        self.reader.start()

    def submit(self, future: Future, message: memoryview) -> None:
        with self.lock:
            if self.broken or self.closing:
                raise BrokenProcessPool(
                    "a worker process died; rebuild() the pool before submitting again"
                )
            self.queue.append((future, message))
            if self.idle:
                self._dispatch(self.idle.pop())

    def _dispatch(self, index: int) -> None:
        """Give free worker ``index`` the oldest live queued call, or
        mark it idle.  Called with :attr:`lock` held."""
        while self.queue:
            future, message = self.queue.popleft()
            if future.set_running_or_notify_cancel():
                self.busy[index] = future
                try:
                    self.conns[index].send_bytes(message)
                except OSError:
                    pass  # the worker is gone; its sentinel reports the death
                return
        self.idle.append(index)

    def _read(self) -> None:
        index_of = {conn: i for i, conn in enumerate(self.conns)}
        sentinels = {process.sentinel: i for i, process in enumerate(self.processes)}
        waitables = [*self.conns, *sentinels, self.wake_r]
        while True:
            ready = wait(waitables)
            if self.closing:
                return
            replies: list[tuple[Future, bytes]] = []
            dead = [sentinels[obj] for obj in ready if obj in sentinels]
            for obj in ready:
                index = index_of.get(obj)
                if index is None:
                    continue
                try:
                    data = obj.recv_bytes()
                except (EOFError, OSError):
                    dead.append(index)
                    continue
                with self.lock:
                    future = self.busy.pop(index, None)  # None: close() took it
                    if index not in dead:  # a dead worker's last reply
                        self._dispatch(index)
                if future is not None:
                    replies.append((future, data))
            for future, data in replies:
                try:
                    ok, value = pickle.loads(data)
                except Exception as exc:  # noqa: BLE001 - an unloadable reply fails its call
                    ok, value = False, exc
                if ok:
                    future.set_result(value)
                else:
                    future.set_exception(value)
            if dead:
                self._break(dead)
                return

    def _break(self, dead: list[int]) -> None:
        """Fail every outstanding call: first the dead workers' own,
        then the bystanders."""
        with self.lock:
            if self.closing:
                return
            self.broken = True
            culprits = [self.busy.pop(i) for i in dead if i in self.busy]
            bystanders = self._take_outstanding()
        _fail(culprits, BrokenProcessPool(WORKER_DIED))
        _fail(bystanders, SiblingDied(
            "another worker process of the pool died while this call was "
            "running or pending"
        ))

    def _take_outstanding(self) -> list[Future]:
        futures = list(self.busy.values()) + [future for future, _ in self.queue]
        self.busy.clear()
        self.queue.clear()
        return futures

    def close(self) -> None:
        """Terminate the workers, hung ones included, and release every
        pipe, sentinel and thread of this generation."""
        with self.lock:
            self.closing = True
            outstanding = self._take_outstanding()
        os.write(self.wake_w, b"\0")
        self.reader.join()
        self._reap()
        os.close(self.wake_r)
        os.close(self.wake_w)
        _fail(outstanding, BrokenProcessPool("the worker pool was rebuilt or shut down"))

    def _reap(self) -> None:
        """Terminate (then kill) the processes and close their pipes."""
        for process in self.processes:
            process.terminate()
        for process in self.processes:
            process.join(timeout=5.0)
            if process.is_alive():
                process.kill()
                process.join()
            process.close()
        for conn in self.conns:
            conn.close()


class WorkerPool:
    """A rebuildable process pool, shareable across fleet runs.

    Workers start on the first :meth:`submit`, so a pool can be
    constructed cheaply at daemon startup, and then persist: each keeps
    its module state from call to call.  A worker that dies fails every
    running and queued call with :class:`BrokenProcessPool` (the dead
    worker's own call exactly that class, the others
    :class:`SiblingDied`), and further submits raise it too, until
    :meth:`rebuild`.  :meth:`rebuild` terminates the current workers
    (the only way to reclaim a hung call's slot) and lets the next
    submit start fresh ones — the pool object itself stays usable,
    which is what lets a long-running daemon recover from a hang or
    drop a cancelled job's in-flight shards without losing the pool it
    shares across jobs.  :meth:`shutdown` ends the pool's life.
    """

    def __init__(self, workers: int, initializer: Optional[Callable[[], None]] = None):
        if workers <= 0:
            raise EvaluationError(f"worker pool needs >= 1 worker, got {workers}")
        self.workers = workers
        # Default lazily to the fleet worker's signal-disposition reset
        # (importing it at module load would be circular: worker pulls
        # in the evaluation package, which imports this module).
        self._initializer = initializer
        self._current: Optional[_Workers] = None
        self._closed = False
        self._lock = threading.Lock()
        self._in_flight = 0
        self._in_flight_lock = threading.Lock()

    def _generation(self) -> _Workers:
        with self._lock:
            if self._closed:
                raise EvaluationError("worker pool is shut down")
            if self._current is None:
                if self._initializer is None:
                    from repro.fleet.worker import ignore_interrupts

                    self._initializer = ignore_interrupts
                self._current = _Workers(self.workers, self._initializer)
            return self._current

    def submit(self, fn: Callable[..., R], *args) -> "Future[R]":
        """Run ``fn(*args)`` on a worker; returns its future.

        :attr:`in_flight` is what pool-utilization metrics report, so
        every path that resolves a future — success, worker exception,
        cancellation, pool breakage — must decrement it; the done
        callback fires on all of them.
        """
        message = ForkingPickler.dumps((fn, args))
        future: Future = Future()
        self._generation().submit(future, message)
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

    @property
    def pids(self) -> tuple[int, ...]:
        """Process ids of the current workers (empty before the first
        submit and after a rebuild): the identity of this generation."""
        with self._lock:
            current = self._current
        return () if current is None else tuple(p.pid for p in current.processes)

    def rebuild(self) -> None:
        """Terminate the current workers; the next submit starts fresh ones."""
        with self._lock:
            current, self._current = self._current, None
        if current is not None:
            current.close()

    def shutdown(self) -> None:
        """Terminate the workers and refuse further use."""
        with self._lock:
            self._closed = True
        self.rebuild()
