"""Run one operation of a workload against the program and check it.

``frames`` calls :func:`run_workload_job` in process, ``short`` goes
through the :class:`repro.Session` facade, and ``serve`` is one client
of an in-process ``repro serve`` daemon: POST a job, read its event
stream until the terminal ``result`` event.  Each driver times only the
program call; digests are computed and compared after the clock stops.
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
import os
import resource
import shutil
import time
from dataclasses import dataclass
from typing import Callable, Optional

from perfbench.population import Op, digest, result_bytes

OUT_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".perfbench_out")


#: Event-stream reopenings allowed per job before it counts as failed.
MAX_RECONNECTS = 5


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class Outcome:
    """What one operation did."""

    seconds: float
    sessions: int
    #: the output digest matched the expected table
    ok: bool
    error: Optional[str] = None
    #: shard retries the job's result reports (serve only)
    retries: int = 0
    #: the part of ``seconds`` spent computing in the interpreter: all
    #: of it in process, the busiest pool worker's share on serve
    compute_s: Optional[float] = None


class InProcessDriver:
    """``frames`` and ``short``: one session per operation, this thread."""

    def __init__(self, workload: str, expected: dict) -> None:
        from repro import Session
        from repro.evaluation.runner import run_result_to_dict, run_workload_job

        self.workload = workload
        self.expected = expected.get(workload, {})
        if workload == "frames":
            self._call: Callable[[dict], dict] = run_workload_job
        else:
            def call(spec: dict) -> dict:
                return run_result_to_dict(Session(**spec).run_micro_interaction())

            self._call = call
        #: wraps each program call (the traced run opens a root span here)
        self.around: Callable = direct

    def run(self, op: Op, check: bool = True) -> Outcome:
        start = time.perf_counter()
        try:
            result = self.around("session", self._call, op.spec)
        except Exception as exc:  # noqa: BLE001 - a raised session is a failed op
            return Outcome(time.perf_counter() - start, 1, False, f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
        if not check:
            return Outcome(seconds, 1, True)
        got = digest(result_bytes(result))
        want = self.expected.get(op.key)
        if got != want:
            return Outcome(seconds, 1, False, f"digest {got[:16]} != expected {str(want)[:16]}")
        return Outcome(seconds, 1, True)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


def direct(_name: str, fn: Callable, *args):
    return fn(*args)


class ServeDriver:
    """``serve``: one closed-loop client of an in-process daemon with
    ``nproc`` pool workers and one lane.  ``shards`` (a
    :class:`perfbench.layers.ShardProbe`) tells it how long each job's
    shards ran inside the workers."""

    def __init__(self, expected: dict, shards) -> None:
        from repro.serve.server import ServeApp

        self.expected = expected.get("serve", {})
        self.shards = shards
        self.state_dir = os.path.join(OUT_DIR, f"serve-state-{os.getpid()}")
        shutil.rmtree(self.state_dir, ignore_errors=True)
        self.app = ServeApp(
            port=0, state_dir=self.state_dir, workers=nproc(),
            max_concurrent_jobs=1, quiet=True,
        )
        self.app.start()
        self.host, self.port = self.app.address
        #: called with (job id, post seconds, receipt perf_counter) in traced runs
        self.on_job: Optional[Callable[[str, float, float], None]] = None
        #: event streams that ended before their job's terminal event
        self.reconnects = 0

    def _connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=120)

    def run(self, op: Op, check: bool = True) -> Outcome:
        from repro.serve.sse import iter_events

        workers_before = self.shards.worker_snapshot()
        start = time.perf_counter()
        conn = self._connection()
        try:
            conn.request(
                "POST", "/jobs", body=json.dumps(op.spec),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            body = response.read()
        finally:
            conn.close()
        posted = time.perf_counter()
        sessions = op.spec["sessions"]
        if response.status != 201:
            return Outcome(posted - start, sessions, False, f"POST /jobs -> {response.status}")
        job_id = json.loads(body)["id"]
        terminal = None
        last_id: Optional[str] = None
        streams = 0
        # Like an EventSource: a stream that ends before the terminal
        # event is reopened from the last event id it delivered.
        while terminal is None and streams <= MAX_RECONNECTS:
            streams += 1
            conn = self._connection()
            try:
                headers = {} if last_id is None else {"Last-Event-ID": last_id}
                conn.request("GET", f"/jobs/{job_id}/events", headers=headers)
                response = conn.getresponse()
                if response.status != 200:
                    return Outcome(time.perf_counter() - start, sessions, False,
                                   f"GET events -> {response.status}")
                lines = (raw.decode("utf-8") for raw in response)
                for event in iter_events(lines):
                    last_id = event.id if event.id is not None else last_id
                    if event.event in ("result", "failed", "cancelled"):
                        terminal = event
                        break
            finally:
                conn.close()
        received = time.perf_counter()
        self.reconnects += streams - 1
        seconds = received - start
        # Every shard's future has settled before the job's result event
        # exists, so the probe already holds this job's worker time.
        workers_after = self.shards.worker_snapshot()
        busiest_ns = max(
            (ns - workers_before.get(pid, 0) for pid, ns in workers_after.items()), default=0
        )
        compute_s = min(busiest_ns / 1e9, seconds)
        if self.on_job is not None:
            self.on_job(job_id, posted - start, received)
        if terminal is None or terminal.event != "result":
            name = terminal.event if terminal is not None else "end of stream"
            return Outcome(seconds, sessions, False, f"job {job_id} ended with {name}",
                           compute_s=compute_s)
        retries = json.loads(terminal.data)["run"]["retries"]
        if not check:
            return Outcome(seconds, sessions, True, retries=retries, compute_s=compute_s)
        got = digest(terminal.data.encode("utf-8"))
        want = self.expected.get(op.key)
        if got != want:
            return Outcome(seconds, sessions, False,
                           f"digest {got[:16]} != expected {str(want)[:16]}", retries,
                           compute_s)
        return Outcome(seconds, sessions, True, retries=retries, compute_s=compute_s)

    def peak_rss_mb(self) -> float:
        total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        for child in multiprocessing.active_children():
            total_kb += _vm_hwm_kb(child.pid)
        return total_kb / 1024.0

    def close(self) -> None:
        self.app.stop()
        shutil.rmtree(self.state_dir, ignore_errors=True)


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def prepare(workload: str, expected: dict):
    """Everything between a fresh interpreter and the first timed
    operation: imports, registries, the daemon and its worker pool for
    ``serve``, the counter probe (:class:`perfbench.layers.ShardProbe`
    on serve), and one warm-up operation whose
    session seed lies outside every pool.

    Returns (driver, probe, patches); ``patches.undo()`` removes the probe.
    """
    from perfbench.layers import Patches, SessionProbe, ShardProbe
    from perfbench.population import warmup_op

    patches = Patches()
    if workload == "serve":
        probe = ShardProbe()
        driver = ServeDriver(expected, probe)
    else:
        probe = SessionProbe()
        driver = InProcessDriver(workload, expected)
    probe.install(patches)
    outcome = driver.run(warmup_op(workload), check=False)
    if outcome.error is not None:
        driver.close()
        patches.undo()
        raise RuntimeError(f"warm-up operation failed: {outcome.error}")
    return driver, probe, patches
