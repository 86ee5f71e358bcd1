"""The fleet driver: run a population of sessions across worker processes.

Execution model:

* the population is expanded and sharded deterministically by
  :class:`~repro.fleet.spec.FleetSpec` (never influenced by job count);
* shards run on a :class:`~repro.fleet.pool.WorkerPool` (``jobs > 1``)
  or inline (``jobs == 1``) through the same
  :func:`~repro.fleet.worker.run_shard_job` entry point;
* each worker has at most one shard running and one queued behind it,
  and a shard's wall-clock deadline starts when it reaches a worker,
  not when it joins a queue; a crashed or hung shard is retried within
  a bounded budget and then recorded in the result, never fatal;
* partial aggregates merge in shard-index order, so the aggregate is
  bit-identical across job counts; a grid fleet's shards also return
  their sessions' result rows, concatenated in the same order into
  ``FleetResult.runs``;
* with a checkpoint attached, every partial is durably appended
  before it is accepted or reported (the pooled backend first refills
  the pool, then journals what landed with one fsync, then accepts
  it), and ``resume=True`` reloads completed shards and skips them —
  an interrupted-then-resumed run serialises byte-identically to an
  uninterrupted one;
* SIGINT/SIGTERM during a pooled run triggers a graceful stop: no new
  shards are submitted, in-flight workers are terminated, the
  checkpoint is flushed, and the partial result reports which signal
  stopped it (a second signal exits immediately);
* embedders (the ``repro serve`` daemon, progress heartbeats) can pass
  ``on_shard=`` to observe each accepted partial as it lands, ``stop=``
  (a :class:`threading.Event`) for a signal-free cooperative stop, and
  ``pool=`` (a :class:`repro.fleet.pool.WorkerPool`) to share one warm
  worker pool across many runs.
"""

from __future__ import annotations

import itertools
import json
import signal
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import EvaluationError
from repro.fleet.aggregate import FleetAggregate, merge_partials
from repro.fleet.checkpoint import CheckpointStore
from repro.fleet.pool import SiblingDied, WorkerPool
from repro.fleet.spec import FleetSpec, Shard
from repro.fleet.worker import run_shard_job

#: How often the pool loop wakes to check shard deadlines (seconds).
_POLL_S = 0.05

#: ``on_shard`` callback type: (partial dict, accepted shard count so
#: far — resumed shards included, total shard count).
ShardCallback = Callable[[dict, int, int], None]


@dataclass
class ShardFailure:
    """A shard that exhausted its retry budget."""

    shard: int
    attempts: int
    error: str

    def to_dict(self) -> dict:
        return {"shard": self.shard, "attempts": self.attempts, "error": self.error}


@dataclass
class FleetResult:
    """Outcome of one fleet run."""

    sessions: int
    seed: int
    jobs: int
    shard_size: int
    shards_total: int
    sessions_completed: int
    retries: int
    failures: list[ShardFailure]
    aggregate: FleetAggregate
    elapsed_s: float = 0.0
    #: shards reloaded from a checkpoint instead of executed
    resumed_shards: int = 0
    #: the signal number that gracefully stopped this run, else None.
    #: Execution fact only — like ``jobs`` and ``elapsed_s`` it never
    #: enters :meth:`to_dict`, so a resumed-to-completion run stays
    #: byte-identical to an uninterrupted one.
    interrupted: Optional[int] = None
    #: True when a cooperative ``stop`` event ended the run early
    #: (job cancellation, daemon drain).  Execution fact only, like
    #: ``interrupted`` — never serialised.
    stopped: bool = False
    #: a grid fleet's ``run_workload_job`` dicts, population order (the
    #: rows of completed shards only); empty for a mix fleet.  Never
    #: serialised: :meth:`to_dict` stays the aggregate's.
    runs: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every session of the population was aggregated."""
        return not self.failures and self.interrupted is None and not self.stopped

    def to_dict(self) -> dict:
        """Plain-data form.

        The ``fleet`` and ``aggregate`` sections depend only on the
        (population, seed) actually aggregated — wall-clock time and
        job count are deliberately excluded — so a clean (failure-free)
        run serialises byte-identically no matter how many workers ran
        it or how long they took.  The ``run`` section records what
        this particular execution did (completions, retries, failures);
        under failures it can differ across job counts, because the
        pooled backend has failure modes (shard deadlines, worker
        death) that cannot occur inline.
        """
        return {
            "fleet": {
                "sessions": self.sessions,
                "seed": self.seed,
                "shard_size": self.shard_size,
                "shards": self.shards_total,
            },
            "run": {
                "sessions_completed": self.sessions_completed,
                "retries": self.retries,
                "failed_shards": [failure.to_dict() for failure in self.failures],
            },
            "aggregate": self.aggregate.to_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


class Fleet:
    """Run a :class:`FleetSpec` population.

    >>> from repro.fleet import Fleet, FleetSpec, parse_mix
    >>> spec = FleetSpec(sessions=100, seed=7, mix=parse_mix("todo:greenweb,cnet:perf"))
    >>> result = Fleet(spec, jobs=4).run()
    >>> result.aggregate.energy_j.sum  # doctest: +SKIP

    ``checkpoint`` names a JSONL file (see
    :mod:`repro.fleet.checkpoint`) that durably records each accepted
    shard partial; ``resume=True`` reloads completed shards from it —
    refusing if it was written for a different spec fingerprint — and
    runs only the rest.

    ``on_shard(partial, accepted, total)`` is called for every accepted
    shard partial — resumed shards first (in shard-index order, before
    any fresh shard runs), then fresh ones in acceptance order.  It runs
    on the driver thread and must not raise.  ``stop`` is a
    :class:`threading.Event`; setting it stops the run gracefully (no
    new shards submitted, in-flight work dropped — unrecorded shards
    simply rerun on resume) with ``result.stopped`` set.  ``pool`` is a
    caller-owned :class:`~repro.fleet.pool.WorkerPool` to execute on;
    the driver never shuts it down (it rebuilds it when a hang, broken
    worker, or early stop leaves work in flight), so one warm pool can
    serve many sequential runs.
    """

    def __init__(
        self,
        spec: FleetSpec,
        jobs: int = 1,
        checkpoint: Optional[str] = None,
        resume: bool = False,
        pool: Optional[WorkerPool] = None,
        on_shard: Optional[ShardCallback] = None,
        stop: Optional[threading.Event] = None,
    ) -> None:
        if jobs <= 0:
            raise EvaluationError(f"fleet needs >= 1 job, got {jobs}")
        if resume and checkpoint is None:
            raise EvaluationError("resume requires a checkpoint path")
        self.spec = spec
        self.jobs = jobs
        self.checkpoint = checkpoint
        self.resume = resume
        self.pool = pool
        self.on_shard = on_shard
        self.stop = stop
        self._accepted = 0
        self._total_shards = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self) -> FleetResult:
        started = time.monotonic()
        shards = self.spec.shards()
        self._accepted = 0
        self._total_shards = len(shards)
        store: Optional[CheckpointStore] = None
        preloaded: dict[int, dict] = {}
        if self.checkpoint is not None:
            # Fingerprint validation happens here, before any shard (or
            # worker process) is started: a mismatched resume must fail
            # without doing any work.  A fresh journal's header is only
            # written once the first shards are running (see
            # CheckpointStore.fresh), still before any shard record.
            if self.resume:
                store = CheckpointStore.resume(
                    self.checkpoint, self.spec.fingerprint()
                )
            else:
                store = CheckpointStore.fresh(
                    self.checkpoint, self.spec.fingerprint()
                )
            preloaded = store.completed

        interrupted: Optional[int] = None
        stopped = False
        try:
            # Announce resumed shards (in shard-index order, before any
            # fresh shard runs) so progress heartbeats and streaming
            # consumers account for them immediately.
            for shard in shards:
                if shard.index in preloaded:
                    self._notify(preloaded[shard.index])
            todo = [shard for shard in shards if shard.index not in preloaded]
            if not todo:
                results, retries, failures = {}, 0, []
            elif self.pool is None and self.jobs == 1:
                results, retries, failures, interrupted, stopped = (
                    self._run_inline(todo, store)
                )
            else:
                results, retries, failures, interrupted, stopped = (
                    self._run_pooled(todo, store)
                )
            results.update(preloaded)
        finally:
            if store is not None:
                store.close()

        aggregate = merge_partials(results)
        sessions_completed = sum(partial["sessions"] for partial in results.values())
        runs = [
            run for index in sorted(results) for run in results[index].get("runs", ())
        ]

        return FleetResult(
            sessions=self.spec.sessions,
            seed=self.spec.seed,
            jobs=self.jobs,
            shard_size=self.spec.shard_size,
            shards_total=len(shards),
            sessions_completed=sessions_completed,
            retries=retries,
            failures=sorted(failures, key=lambda f: f.shard),
            aggregate=aggregate,
            elapsed_s=time.monotonic() - started,
            resumed_shards=len(preloaded),
            interrupted=interrupted,
            stopped=stopped,
            runs=runs,
        )

    # ------------------------------------------------------------------
    # Execution backends
    # ------------------------------------------------------------------
    def _notify(self, partial: dict) -> None:
        """Count one accepted partial and inform the observer."""
        self._accepted += 1
        if self.on_shard is not None:
            self.on_shard(partial, self._accepted, self._total_shards)

    def _stop_requested(self) -> bool:
        return self.stop is not None and self.stop.is_set()

    def _payload(self, shard: Shard, attempt: int) -> dict:
        payload = {
            "shard": shard.index,
            "attempt": attempt,
            "sessions": [spec.to_job(self.spec.settle_s) for spec in shard.sessions],
        }
        if self.spec.seeds:
            payload["runs"] = True
        if self.spec.inject_crash is not None:
            payload["inject_crash"] = self.spec.inject_crash
        return payload

    def _run_inline(self, shards: list[Shard], store: Optional[CheckpointStore]):
        """Sequential backend: same shard granularity, same retry
        semantics, no processes (and hence no hang timeouts).

        Ctrl-C lands as a plain ``KeyboardInterrupt`` here (there are
        no workers to reap); the shard it interrupted is dropped — the
        checkpoint already holds every shard accepted before it.
        """
        results: dict[int, dict] = {}
        failures: list[ShardFailure] = []
        retries = 0
        interrupted: Optional[int] = None
        stopped = False
        try:
            for shard in shards:
                if self._stop_requested():
                    stopped = True
                    break
                for attempt in range(self.spec.max_retries + 1):
                    try:
                        partial = run_shard_job(self._payload(shard, attempt))
                    except Exception as exc:
                        if attempt < self.spec.max_retries:
                            retries += 1
                        else:
                            failures.append(
                                ShardFailure(shard.index, attempt + 1, repr(exc))
                            )
                    else:
                        results[shard.index] = partial
                        if store is not None:
                            store.record(partial)
                        self._notify(partial)
                        break
        except KeyboardInterrupt:
            interrupted = signal.SIGINT
        return results, retries, failures, interrupted, stopped

    def _run_pooled(self, shards: list[Shard], store: Optional[CheckpointStore]):
        """Process-pool backend with per-shard deadlines and retry.

        Each worker has at most one shard running and one queued behind
        it in the pool, which hands a freed worker its queued shard
        without waiting for this thread.  The pool runs shards in
        submission order, so the oldest ``workers`` shards in flight are
        the ones executing; a shard's deadline starts when it becomes
        one of them, so it clocks execution time, not queue wait — a
        fleet of any size can sit in the ready queue indefinitely
        without timing out.  A shard that does outlive its deadline
        cannot be interrupted through the future API; the worker pool is
        killed and rebuilt instead, so a hang frees its slot rather than
        silently shrinking capacity.

        Each wake-up handles what landed in three steps: freed slots are
        refilled first, so no worker idles through an fsync; then the
        landed partials are journaled with one fsync; only then are they
        accepted and reported through ``on_shard``.  A fresh
        checkpoint's header is written right after the first wave is
        handed out.

        SIGINT/SIGTERM get a graceful path: the first signal stops
        submission and breaks the loop — the shared ``finally``
        terminates every worker (hung ones included) and the run
        returns what it has, checkpoint already flushed.  The handler
        re-arms the default handlers as its first act, so a second
        signal exits immediately.

        With a caller-owned pool (``self.pool``), the same machinery
        runs on borrowed workers: the in-flight cap follows the pool's
        worker count, a hang still rebuilds the pool (the pool object
        survives, only its processes are replaced), and teardown never
        shuts the pool down — it only rebuilds it when an early exit
        leaves shards in flight, so the next run starts from a clean
        pool instead of racing abandoned work.
        """
        owned = self.pool is None
        # An owned pool forks no more workers than there are shards.
        pool = self.pool if self.pool is not None else WorkerPool(min(self.jobs, len(shards)))
        cap = 2 * pool.workers
        by_index = {shard.index: shard for shard in shards}
        results: dict[int, dict] = {}
        failures: list[ShardFailure] = []
        retries = 0
        #: shards ready to run, as (shard_index, attempt)
        ready: deque[tuple[int, int]] = deque((shard.index, 0) for shard in shards)
        #: shards in the pool, in submission order, as (shard_index,
        #: attempt, deadline); the deadline is None until the shard is
        #: one of the oldest ``pool.workers``, i.e. on a worker
        running: dict[Future, tuple[int, int, Optional[float]]] = {}

        interrupted: list[int] = []
        stopped = False

        def handle_signal(signum: int, _frame) -> None:
            signal.signal(signal.SIGINT, signal.default_int_handler)
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            interrupted.append(signum)

        # Signal handlers can only be installed from the main thread; a
        # fleet driven from a worker thread just keeps the process's
        # existing disposition.
        previous: dict[int, object] = {}
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGINT, signal.SIGTERM):
                previous[signum] = signal.signal(signum, handle_signal)

        def submit_ready() -> None:
            while ready and len(running) < cap:
                shard_index, attempt = ready[0]
                try:
                    future = pool.submit(
                        run_shard_job, self._payload(by_index[shard_index], attempt)
                    )
                except BrokenProcessPool:
                    # A worker died since the last wake-up.  Shards still
                    # in flight will report it; with none, nothing would,
                    # so rebuild here.
                    if running:
                        return
                    pool.rebuild()
                    continue
                ready.popleft()
                running[future] = (shard_index, attempt, None)

        def start_clocks() -> None:
            deadline = time.monotonic() + self.spec.shard_timeout_s
            for future in itertools.islice(running, pool.workers):
                shard_index, attempt, started = running[future]
                if started is None:
                    running[future] = (shard_index, attempt, deadline)

        def reschedule(shard_index: int, attempt: int, error: str) -> None:
            nonlocal retries
            if attempt < self.spec.max_retries:
                retries += 1
                ready.append((shard_index, attempt + 1))
            else:
                failures.append(ShardFailure(shard_index, attempt + 1, error))

        def requeue_running() -> None:
            # Innocent in-flight shards go back to the head of the
            # queue at the same attempt — no retry charge.
            for shard_index, attempt, _ in reversed(list(running.values())):
                ready.appendleft((shard_index, attempt))
            running.clear()

        try:
            while (ready or running) and not interrupted:
                if self._stop_requested():
                    stopped = True
                    break
                submit_ready()
                start_clocks()
                if store is not None:
                    store.write_header()  # once, after the first wave
                done, _ = wait(
                    set(running), timeout=_POLL_S, return_when=FIRST_COMPLETED
                )
                landed: list[dict] = []
                broken = False
                for future in done:
                    shard_index, attempt, _deadline = running.pop(future)
                    try:
                        partial = future.result()
                    except SiblingDied:
                        # Failed only because another worker died: rerun
                        # free of charge.
                        ready.appendleft((shard_index, attempt))
                        broken = True
                    except BrokenProcessPool as exc:
                        # This shard's own worker died: charge it a retry.
                        reschedule(shard_index, attempt, repr(exc))
                        broken = True
                    except Exception as exc:
                        reschedule(shard_index, attempt, repr(exc))
                    else:
                        landed.append(partial)
                if broken:
                    # A hard worker death poisons the whole pool: put
                    # bystanders still in flight back, and terminate the
                    # processes (not just shut down) — that is what
                    # actually returns a dead or hung shard's slot.
                    requeue_running()
                    pool.rebuild()
                else:
                    submit_ready()
                if landed:
                    if store is not None:
                        store.record(*landed)
                    for partial in landed:
                        results[partial["shard"]] = partial
                        self._notify(partial)
                now = time.monotonic()
                expired = {
                    future: (shard_index, attempt)
                    for future, (shard_index, attempt, deadline) in running.items()
                    if deadline is not None and now > deadline
                }
                if expired:
                    for future in expired:
                        del running[future]
                    requeue_running()
                    for shard_index, attempt in expired.values():
                        reschedule(
                            shard_index,
                            attempt,
                            f"shard {shard_index} exceeded "
                            f"{self.spec.shard_timeout_s}s deadline",
                        )
                    pool.rebuild()
        finally:
            # Every exit path — completion, interruption, an exception
            # in this loop — must leave zero abandoned worker processes
            # behind; plain ``shutdown`` would leak any worker stuck in
            # user code.  In-flight shards at interruption/stop are
            # simply dropped: unrecorded, they rerun on resume.  An
            # owned pool dies with the run; a borrowed pool belongs to
            # the caller and is only rebuilt (workers replaced, pool
            # kept) when an early exit left shards in flight.
            if owned:
                pool.shutdown()
            elif running:
                pool.rebuild()
            for signum, handler in previous.items():
                signal.signal(signum, handler)
        return (
            results,
            retries,
            failures,
            (interrupted[0] if interrupted else None),
            stopped,
        )
