"""Job lifecycle for the ``repro serve`` daemon.

A *job* is one fleet population to simulate: the canonical payload of a
``POST /jobs`` body, a status, a per-job checkpoint journal, and — while
the daemon lives — an in-memory event log streamed to SSE subscribers.

Restart safety is the defining property.  Everything a restarted daemon
needs is on disk in the state directory, written atomically or
append-only:

* ``<id>.job.json`` — the canonical payload plus the last *settled*
  status (``queued``/``cancelled``/``failed``).  ``running`` is never
  persisted: a daemon killed mid-job leaves the file saying ``queued``,
  which is exactly what recovery should do with it.
* ``<id>.ckpt`` — the fleet checkpoint journal
  (:mod:`repro.fleet.checkpoint`), fsync'd per shard.
* ``<id>.result.json`` — the terminal result document, byte-identical
  to ``repro fleet --json-out`` for the same spec; written atomically,
  its existence *is* the ``done`` status.

On restart, :meth:`JobStore.recover` re-enqueues every non-settled job
with ``resume`` semantics, so a SIGTERM'd daemon finishes its in-flight
jobs byte-identically to an uninterrupted run.
"""

from __future__ import annotations

import json
import os
import re
import sys
import threading
import time
from collections import deque
from typing import Optional

from repro.errors import EvaluationError
from repro.fleet import Fleet, FleetAggregate, WorkerPool
from repro.ioutil import write_file_atomic
from repro.serve.metrics import ServeMetrics
from repro.serve.schemas import build_fleet_spec, normalize_job_payload

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: statuses that survive restarts as-is (everything else re-runs)
SETTLED = (DONE, FAILED, CANCELLED)

#: the SSE event that ends a job's stream, per terminal status
TERMINAL_EVENT = {DONE: "result", FAILED: "failed", CANCELLED: "cancelled"}

#: SSE event names that end a job's stream
TERMINAL_EVENTS = tuple(TERMINAL_EVENT.values())

#: per-job replay window: events older than this are summarised by a
#: ``snapshot`` on reconnect instead of replayed one by one
EVENT_WINDOW = 1024

#: daemon-generated job ids; recovered state dirs may contain others
_JOB_NUMBER = re.compile(r"^job-(\d+)$")


class QueueFull(EvaluationError):
    """Admission refused: the queue is at ``max_queued`` jobs.

    The server maps this to HTTP 429 with a ``Retry-After`` hint;
    recovery is exempt (a restarted daemon never drops persisted
    jobs, no matter how many it finds queued on disk).
    """


def merge_partials(partials: dict[int, dict]) -> FleetAggregate:
    """Merge shard partials in shard-index order.

    Index order is the one fixed order the fleet driver merges in, so a
    prefix aggregate streamed after shard ``k`` lands is byte-identical
    to what a ``repro fleet`` run over exactly that shard subset would
    report — regardless of the (nondeterministic) order shards
    completed in.
    """
    aggregate = FleetAggregate()
    for index in sorted(partials):
        aggregate.merge(FleetAggregate.from_dict(partials[index]["aggregate"]))
    return aggregate


def _read_result(path: str) -> Optional[tuple[str, int, bool]]:
    """A result document's text, completed sessions and ok flag, or None
    when the document is missing or torn (empty, truncated, malformed)."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        run = json.loads(text)["run"]
        return text, run["sessions_completed"], not run["failed_shards"]
    except (FileNotFoundError, ValueError, KeyError, TypeError):
        return None


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class Job:
    """One submitted fleet job and its live, lock-guarded state."""

    def __init__(self, job_id: str, payload: dict, status: str = QUEUED):
        self.id = job_id
        self.payload = payload
        self.status = status
        #: admission priority — higher runs sooner; ties break by
        #: submission order.  Older persisted records predate the field.
        self.priority: int = payload.get("priority", 0)
        #: store-assigned admission sequence number; a requeued job
        #: keeps its original one, so a daemon drain puts it back ahead
        #: of everything submitted after it at the same priority.
        self.submit_seq = 0
        #: wall-clock time the job reached a settled status (retention
        #: GC orders and ages settled jobs by this)
        self.settled_at: Optional[float] = None
        self.error: Optional[str] = None
        self.ok: Optional[bool] = None
        self.result_text: Optional[str] = None
        self.cancel_requested = False
        self.stop = threading.Event()
        self.resumed_shards = 0

        self.shards_total = _ceil_div(payload["sessions"], payload["shard_size"])
        self.shards_done = 0
        self.sessions_completed = 0
        self.partials: dict[int, dict] = {}

        self.cond = threading.Condition()
        self.seq = 0
        #: retained (seq, name, data) events for replay; older ones are
        #: covered by the snapshot a late subscriber receives first
        self.events: deque[tuple[int, str, str]] = deque(maxlen=EVENT_WINDOW)

    @property
    def sort_key(self) -> tuple[int, int]:
        """Queue order: highest priority first, then admission order."""
        return (-self.priority, self.submit_seq)

    # -- event log -----------------------------------------------------
    def publish(self, name: str, data: str) -> int:
        # ``cond`` wraps an RLock, so settling code may publish its
        # terminal event while still holding the lock.
        with self.cond:
            self.seq += 1
            self.events.append((self.seq, name, data))
            self.cond.notify_all()
            return self.seq

    def progress_data(self, shard: Optional[dict] = None) -> str:
        """The JSON body of an ``update``/``snapshot`` event.

        Callers must hold no expectation of atomicity beyond what the
        job condition lock gives them; the runner publishes under it.
        """
        body = {
            "shards_done": self.shards_done,
            "shards_total": self.shards_total,
            "sessions_total": self.payload["sessions"],
            "sessions_completed": self.sessions_completed,
            "aggregate": merge_partials(self.partials).to_dict(),
        }
        if shard is not None:
            body["shard"] = shard["shard"]
            body["shard_sessions"] = shard["sessions"]
        return json.dumps(body, sort_keys=True)

    # -- API projections ----------------------------------------------
    def to_summary(self) -> dict:
        with self.cond:
            return {
                "id": self.id,
                "status": self.status,
                "priority": self.priority,
                "sessions": self.payload["sessions"],
                "shards_done": self.shards_done,
                "shards_total": self.shards_total,
                "ok": self.ok,
            }

    def to_detail(self) -> dict:
        with self.cond:
            detail = {
                "id": self.id,
                "status": self.status,
                "priority": self.priority,
                "spec": dict(self.payload),
                "progress": {
                    "shards_done": self.shards_done,
                    "shards_total": self.shards_total,
                    "sessions_completed": self.sessions_completed,
                    "sessions_total": self.payload["sessions"],
                    "resumed_shards": self.resumed_shards,
                },
                "ok": self.ok,
                "error": self.error,
                "cancel_requested": self.cancel_requested,
                "links": {
                    "events": f"/jobs/{self.id}/events",
                    "report": f"/jobs/{self.id}/report",
                },
            }
            return detail


class JobStore:
    """All jobs the daemon knows, backed by the state directory.

    ``max_queued`` bounds the *admission* queue (jobs waiting for a
    scheduler lane); when it is full, :meth:`submit` raises
    :class:`QueueFull` instead of accepting work the daemon cannot
    start.  Running and settled jobs never count against the bound,
    and :meth:`recover` is exempt — persisted jobs are always loaded.
    """

    def __init__(self, state_dir: str, max_queued: Optional[int] = None):
        if max_queued is not None and max_queued < 1:
            raise EvaluationError(
                f"max_queued must be >= 1 (or None for unbounded), "
                f"got {max_queued}"
            )
        self.state_dir = state_dir
        self.max_queued = max_queued
        self._lock = threading.Condition()
        self._jobs: dict[str, Job] = {}
        #: queued job ids; order is decided at claim time by
        #: :attr:`Job.sort_key` (priority, then admission sequence)
        self._queue: list[str] = []
        self._submit_seq = 0
        self.closed = False

    # -- paths ---------------------------------------------------------
    def job_path(self, job_id: str) -> str:
        return os.path.join(self.state_dir, f"{job_id}.job.json")

    def checkpoint_path(self, job_id: str) -> str:
        return os.path.join(self.state_dir, f"{job_id}.ckpt")

    def result_path(self, job_id: str) -> str:
        return os.path.join(self.state_dir, f"{job_id}.result.json")

    def _persist(self, job: Job) -> None:
        record = {"id": job.id, "status": job.status, "spec": job.payload}
        if job.error is not None:
            record["error"] = job.error
        if job.settled_at is not None:
            record["settled_at"] = job.settled_at
        write_file_atomic(
            self.job_path(job.id), json.dumps(record, sort_keys=True) + "\n"
        )

    # -- lifecycle -----------------------------------------------------
    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    def submit(self, payload: object) -> Job:
        """Validate, persist, and enqueue one job; returns it.

        Raises :class:`QueueFull` when the admission queue is at
        ``max_queued`` — before anything is persisted, so a rejected
        submission leaves no trace in the state dir.
        """
        canonical = normalize_job_payload(payload)
        with self._lock:
            if self.closed:
                raise EvaluationError("job store is shut down")
            if self.max_queued is not None and len(self._queue) >= self.max_queued:
                raise QueueFull(
                    f"admission queue is full ({len(self._queue)}/"
                    f"{self.max_queued} queued jobs); retry later"
                )
            # Recovered state dirs may hold ids this daemon did not
            # mint; number past the daemon-format ones only.
            numbers = (
                int(match.group(1))
                for match in map(_JOB_NUMBER.match, self._jobs)
                if match is not None
            )
            job = Job(f"job-{1 + max(numbers, default=0):04d}", canonical)
            self._submit_seq += 1
            job.submit_seq = self._submit_seq
            self._jobs[job.id] = job
            self._persist(job)
            self._queue.append(job.id)
            self._lock.notify_all()
            return job

    def recover(self, quiet: bool = False) -> list[Job]:
        """Load the state directory written by a previous daemon life.

        Jobs with a result document are ``done``; settled statuses
        (``cancelled``/``failed``) load as-is; everything else —
        including jobs that were mid-run when the daemon died — goes
        back on the queue, to be resumed from its checkpoint journal.

        State files are replaced atomically but not fsync'd, so a power
        loss can leave one empty or truncated.  A torn result document
        puts its job back on the queue: the rerun reloads every shard
        from the journal and rewrites the same result bytes.  A torn job
        record is skipped and left on disk for inspection, with a
        warning on stderr unless ``quiet``.
        """
        recovered: list[Job] = []
        for name in sorted(os.listdir(self.state_dir)):
            if not name.endswith(".job.json"):
                continue
            path = os.path.join(self.state_dir, name)
            try:
                with open(path, encoding="utf-8") as handle:
                    record = json.load(handle)
                job = Job(record["id"], record["spec"], status=record["status"])
            except (ValueError, KeyError, TypeError) as exc:
                if not quiet:
                    sys.stderr.write(
                        f"serve: skipping unreadable job record {path}: {exc}\n"
                    )
                continue
            job.error = record.get("error")
            job.settled_at = record.get("settled_at")
            result_path = self.result_path(job.id)
            result = _read_result(result_path)
            if result is not None:
                job.result_text, job.sessions_completed, job.ok = result
                job.status = DONE
                job.shards_done = job.shards_total
                if job.settled_at is None:
                    # Result written, daemon died before re-persisting
                    # the record: the result file's mtime is settle time.
                    job.settled_at = os.path.getmtime(result_path)
            elif job.status == DONE or job.status not in SETTLED:
                # Unfinished, or finished with a missing or torn result
                # document: rerun from the checkpoint journal.
                job.status = QUEUED
            # A settled job's event stream must still end with its
            # terminal event after a restart, not with a bare snapshot.
            if job.status == DONE:
                job.publish("result", job.result_text)
            elif job.status == FAILED:
                job.publish("failed", json.dumps({"id": job.id, "error": job.error}))
            elif job.status == CANCELLED:
                job.publish(
                    "cancelled", json.dumps({"id": job.id, "status": CANCELLED})
                )
            recovered.append(job)
        # The admission bound deliberately does not apply here:
        # persisted jobs are never dropped, however many were queued
        # at shutdown.
        with self._lock:
            for job in recovered:
                self._submit_seq += 1
                job.submit_seq = self._submit_seq
                self._jobs[job.id] = job
                if job.status == QUEUED:
                    self._queue.append(job.id)
            self._lock.notify_all()
        return recovered

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def list_jobs(self) -> list[Job]:
        with self._lock:
            return [self._jobs[job_id] for job_id in sorted(self._jobs)]

    def claim_next(self, timeout: float = 0.5) -> Optional[Job]:
        """Pop the best queued job and mark it running (scheduler only).

        "Best" is highest priority, oldest admission within a priority
        — :attr:`Job.sort_key`.  Safe to call from any number of
        scheduler lanes concurrently; each queued job is claimed once.
        """
        with self._lock:
            if not self._queue:
                self._lock.wait(timeout)
            if self.closed or not self._queue:
                return None
            job_id = min(self._queue, key=lambda jid: self._jobs[jid].sort_key)
            self._queue.remove(job_id)
            job = self._jobs[job_id]
        with job.cond:
            job.status = RUNNING
        return job

    def requeue(self, job: Job) -> None:
        """Put a drained (daemon-shutdown) job back in queued state.

        Its persisted record already says ``queued`` — running is never
        written to disk — so only the in-memory state moves.  The job
        keeps its original admission sequence, so it sorts ahead of
        everything submitted after it at the same priority.
        """
        with job.cond:
            job.status = QUEUED
            job.stop = threading.Event()
        with self._lock:
            self._queue.append(job.id)

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued job outright or request stop of a running one."""
        job = self.get(job_id)
        if job is None:
            raise KeyError(job_id)
        with self._lock:
            with job.cond:
                if job.status in SETTLED:
                    raise EvaluationError(
                        f"job {job_id} is already {job.status}; nothing to cancel"
                    )
                job.cancel_requested = True
                if job.status == QUEUED:
                    if job_id in self._queue:
                        self._queue.remove(job_id)
                    job.status = CANCELLED
                    job.settled_at = time.time()
                    self._persist(job)
                    job.publish(
                        "cancelled", json.dumps({"id": job.id, "status": CANCELLED})
                    )
                else:
                    job.stop.set()
        return job

    def settle(
        self, job: Job, status: str, *, data: str, error: Optional[str] = None
    ) -> None:
        """Move a job to a terminal status, persist it, and publish its
        terminal event (``data`` is the event body).

        The status change and the event land under one ``job.cond``
        hold: an SSE loop that observes the settled status therefore
        always finds the terminal event in the log as well, and never
        closes a stream without it.  Locks are taken store first, job
        second, the same order as :meth:`cancel`.
        """
        with self._lock, job.cond:
            job.status = status
            job.error = error
            job.settled_at = time.time()
            self._persist(job)
            job.publish(TERMINAL_EVENT[status], data)

    def prune(
        self,
        retain_jobs: Optional[int] = None,
        retain_age_s: Optional[float] = None,
        now: Optional[float] = None,
    ) -> list[str]:
        """Retention GC: drop settled jobs beyond the policy.

        A settled job is pruned when it falls outside the newest
        ``retain_jobs`` settled jobs, or settled more than
        ``retain_age_s`` seconds ago; either limit alone prunes.
        Unsettled jobs (queued/running) are never candidates, so their
        checkpoint journals are never touched.  Per job the files go
        in resurrection-proof order — ``<id>.job.json`` first (without
        it a half-pruned job can never be recovered and re-run),
        result and checkpoint after — and the in-memory entry last.
        """
        if retain_jobs is None and retain_age_s is None:
            return []
        now = time.time() if now is None else now
        with self._lock:
            settled = [
                job for job in self._jobs.values() if job.status in SETTLED
            ]
            # Newest settle first; jobs with no recorded settle time
            # (legacy records) age as oldest.
            settled.sort(key=lambda job: job.settled_at or 0.0, reverse=True)
            doomed: list[Job] = []
            for rank, job in enumerate(settled):
                too_many = retain_jobs is not None and rank >= retain_jobs
                age = now - (job.settled_at or 0.0)
                too_old = retain_age_s is not None and age > retain_age_s
                if too_many or too_old:
                    doomed.append(job)
            for job in doomed:
                for path in (
                    self.job_path(job.id),
                    self.result_path(job.id),
                    self.checkpoint_path(job.id),
                ):
                    try:
                        os.remove(path)
                    except FileNotFoundError:
                        pass
                del self._jobs[job.id]
        return [job.id for job in doomed]

    def close(self) -> None:
        with self._lock:
            self.closed = True
            self._lock.notify_all()
        for job in self.list_jobs():
            with job.cond:
                job.cond.notify_all()


class _JobLane(threading.Thread):
    """One concurrent job slot: a claim loop over its own worker pool.

    A lane owns a :class:`WorkerPool` partition outright, so a hang in
    one job rebuilds only that lane's workers — jobs in other lanes
    never lose in-flight shards to a neighbour's misbehaviour — and
    warm worker processes carry over from job to job within the lane.
    """

    def __init__(self, scheduler: "JobScheduler", index: int, pool: WorkerPool):
        super().__init__(name=f"repro-serve-lane-{index}", daemon=True)
        self.scheduler = scheduler
        self.store = scheduler.store
        self.index = index
        self.pool = pool
        self._draining = threading.Event()
        self.current: Optional[Job] = None

    def drain(self) -> None:
        """Stop after the current shard: running job goes back to
        queued (its checkpoint keeps its progress), queue stays put."""
        self._draining.set()
        job = self.current
        if job is not None:
            job.stop.set()

    def run(self) -> None:
        while not self._draining.is_set() and not self.store.closed:
            job = self.store.claim_next(timeout=0.2)
            if job is None:
                continue
            self.current = job
            try:
                self._execute(job)
            finally:
                self.current = None

    # -----------------------------------------------------------------
    def _execute(self, job: Job) -> None:
        store = self.store
        metrics = self.scheduler.metrics
        if self._draining.is_set():
            # Drain landed between claim and start: nothing ran yet.
            store.requeue(job)
            return
        started = time.monotonic()

        def wall_s() -> float:
            return time.monotonic() - started

        def on_shard(partial: dict, accepted: int, total: int) -> None:
            with job.cond:
                job.partials[partial["shard"]] = partial
                job.shards_done = accepted
                job.shards_total = total
                job.sessions_completed += partial["sessions"]
                data = job.progress_data(shard=partial)
            metrics.shard_completed(partial["sessions"])
            job.publish("update", data)

        try:
            spec = build_fleet_spec(
                job.payload, inject_crash=self.scheduler.inject_crash
            )
            fleet = Fleet(
                spec,
                jobs=self.pool.workers,
                checkpoint=store.checkpoint_path(job.id),
                # Resume semantics always: a fresh job has no journal
                # (degrades to a fresh checkpoint), a recovered one
                # reloads its completed shards and reruns the rest.
                resume=True,
                pool=self.pool,
                on_shard=on_shard,
                stop=job.stop,
            )
            result = fleet.run()
        except Exception as exc:  # noqa: BLE001 - one job must not kill the daemon
            error = f"{type(exc).__name__}: {exc}"
            metrics.job_settled(FAILED, wall_s())
            store.settle(
                job, FAILED, error=error,
                data=json.dumps({"id": job.id, "error": error}),
            )
            self.scheduler.gc()
            return

        with job.cond:
            job.resumed_shards = result.resumed_shards

        if result.stopped:
            if job.cancel_requested:
                metrics.job_settled(CANCELLED, wall_s())
                store.settle(
                    job, CANCELLED,
                    data=json.dumps(
                        {"id": job.id, "status": CANCELLED,
                         "shards_done": job.shards_done}
                    ),
                )
                self.scheduler.gc()
            else:
                # Daemon drain: the job is not over, the daemon is.
                store.requeue(job)
            return

        result_text = result.to_json()
        write_file_atomic(store.result_path(job.id), result_text)
        with job.cond:
            job.result_text = result_text
            job.ok = not result.failures
        # Count the settle before the terminal event becomes visible, so
        # a client that scrapes /metrics after its result sees it.
        metrics.job_settled(DONE, wall_s())
        store.settle(job, DONE, data=result_text)
        self.scheduler.gc()


class JobScheduler:
    """N concurrent job lanes over a partitioned worker-pool fleet.

    The single-runner design this replaces made "daemon capacity" one
    shared pool; here each lane gets its own :class:`WorkerPool`
    partition so concurrent jobs cannot starve or rebuild each other.
    The scheduler is the facade the daemon drives: ``start``/``drain``/
    ``join`` fan out to every lane, :meth:`gc` applies the retention
    policy after any job settles, and :attr:`busy` feeds the metrics
    and the ``Retry-After`` hint.
    """

    def __init__(
        self,
        store: JobStore,
        pools: list[WorkerPool],
        inject_crash: Optional[dict] = None,
        metrics: Optional[ServeMetrics] = None,
        retain_jobs: Optional[int] = None,
        retain_age_s: Optional[float] = None,
    ):
        if not pools:
            raise EvaluationError("job scheduler needs >= 1 worker pool")
        self.store = store
        self.inject_crash = inject_crash
        self.metrics = metrics if metrics is not None else ServeMetrics()
        self.retain_jobs = retain_jobs
        self.retain_age_s = retain_age_s
        self.lanes = [
            _JobLane(self, index, pool) for index, pool in enumerate(pools)
        ]

    def start(self) -> None:
        for lane in self.lanes:
            lane.start()

    def drain(self) -> None:
        """Stop every lane after its current shard; running jobs go
        back to queued with their checkpoints intact."""
        for lane in self.lanes:
            lane.drain()

    def join(self, timeout: Optional[float] = None) -> None:
        deadline = None if timeout is None else time.monotonic() + timeout
        for lane in self.lanes:
            if not lane.is_alive():
                continue
            remaining = (
                None if deadline is None
                else max(deadline - time.monotonic(), 0.0)
            )
            lane.join(timeout=remaining)

    def is_alive(self) -> bool:
        return any(lane.is_alive() for lane in self.lanes)

    @property
    def busy(self) -> int:
        """Lanes currently executing a job."""
        return sum(1 for lane in self.lanes if lane.current is not None)

    def gc(self) -> list[str]:
        """Apply the retention policy; returns the pruned job ids."""
        pruned = self.store.prune(
            retain_jobs=self.retain_jobs, retain_age_s=self.retain_age_s
        )
        if pruned:
            self.metrics.jobs_pruned_add(len(pruned))
        return pruned
