"""The ``repro serve`` HTTP daemon: fleet simulation as a service.

Stdlib only — :class:`http.server.ThreadingHTTPServer` accepts
connections (one thread per request), a :class:`JobScheduler` executes
up to ``--max-concurrent-jobs`` jobs at once, each lane on its own
:class:`repro.fleet.WorkerPool` partition, and the whole thing is
orchestrated by :class:`ServeApp` so the CLI, the tests, and the smoke
script drive the exact same lifecycle.

API surface::

    GET    /                 HTML index of jobs
    GET    /healthz          liveness + queue stats
    GET    /metrics          Prometheus text exposition
    POST   /jobs             submit a job (FleetSpec JSON) -> 201;
                             429 + Retry-After when the queue is full
    GET    /jobs             list jobs
    GET    /jobs/{id}        job detail
    DELETE /jobs/{id}        cancel (queued: immediate; running: stop)
    GET    /jobs/{id}/events SSE: update/snapshot events per completed
                             shard, terminal result/failed/cancelled
    GET    /jobs/{id}/report HTML dashboard (live or final)

The terminal ``result`` event's payload is byte-identical to
``repro fleet --json-out`` for the same spec and seed; a SIGTERM'd
daemon requeues every in-flight job and a restarted daemon resumes
each from its checkpoint journal, preserving that byte-identity even
with several jobs in flight.
"""

from __future__ import annotations

import html
import json
import os
import re
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.errors import EvaluationError, ReproError
from repro.evaluation.report import render_fleet_html
from repro.fleet import FleetAggregate, WorkerPool, merge_partials
from repro.serve.jobs import (
    CANCELLED,
    RUNNING,
    SETTLED,
    TERMINAL_EVENTS,
    Job,
    JobScheduler,
    JobStore,
    QueueFull,
)
from repro.serve.metrics import ServeMetrics
from repro.serve.sse import encode_event

#: reconnection delay hint sent on every event stream (milliseconds)
SSE_RETRY_MS = 2000

#: idle SSE connections get a comment line this often so dead peers
#: surface as broken pipes instead of silent half-open sockets
KEEPALIVE_S = 15.0

_JOB_ROUTE = re.compile(r"^/jobs/([A-Za-z0-9_-]+)(?:/(events|report))?$")


def clamp_cursor(raw: Optional[str], seq: int) -> int:
    """Normalise a ``Last-Event-ID`` header into a valid event cursor.

    Garbage, negative, and beyond-the-log values all clamp into
    ``[0, seq]``: a cursor is a position in this job's event log, and
    accepting one outside it would either replay from a nonsense
    offset or wait forever for events that can never exist.
    """
    try:
        cursor = int(raw if raw is not None else 0)
    except ValueError:
        cursor = 0
    return max(0, min(cursor, seq))


class _Handler(BaseHTTPRequestHandler):
    """Request handler; ``self.server.app`` is the :class:`ServeApp`."""

    server_version = "repro-serve/1.0"

    @property
    def app(self) -> "ServeApp":
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.app.quiet:
            return
        sys.stderr.write(
            f"serve: {self.address_string()} {format % args}\n"
        )

    # -- response helpers ---------------------------------------------
    def _send_json(
        self, status: int, body: dict, headers: Optional[dict] = None
    ) -> None:
        payload = (json.dumps(body, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def _send_html(self, status: int, text: str) -> None:
        payload = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "text/html; charset=utf-8")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        payload = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _job_or_404(self, job_id: str) -> Optional[Job]:
        job = self.app.store.get(job_id)
        if job is None:
            self._error(404, f"no such job: {job_id}")
        return job

    # -- routing -------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802
        path = self.path.split("?", 1)[0]
        if path == "/" or path == "/index.html":
            return self._send_html(200, self.app.render_index())
        if path == "/healthz":
            return self._send_json(200, self.app.health())
        if path == "/metrics":
            return self._send_text(
                200, self.app.render_metrics(),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        if path == "/jobs":
            return self._send_json(
                200, {"jobs": [job.to_summary() for job in self.app.store.list_jobs()]}
            )
        match = _JOB_ROUTE.match(path)
        if match:
            job = self._job_or_404(match.group(1))
            if job is None:
                return None
            if match.group(2) is None:
                return self._send_json(200, job.to_detail())
            if match.group(2) == "events":
                return self._stream_events(job)
            return self._send_html(200, self.app.render_report(job))
        return self._error(404, f"no such resource: {path}")

    def do_POST(self) -> None:  # noqa: N802
        if self.path.split("?", 1)[0] != "/jobs":
            return self._error(404, f"no such resource: {self.path}")
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            return self._error(400, "bad Content-Length")
        raw = self.rfile.read(length) if length else b""
        try:
            payload = json.loads(raw.decode("utf-8")) if raw.strip() else {}
        except (ValueError, UnicodeDecodeError) as exc:
            return self._error(400, f"request body is not valid JSON: {exc}")
        try:
            job = self.app.store.submit(payload)
        except QueueFull as exc:
            # Backpressure, not failure: tell the client when the
            # queue is likely to have a slot again.
            self.app.metrics.job_rejected()
            retry_after = self.app.retry_after_hint()
            return self._send_json(
                429,
                {"error": str(exc), "retry_after_s": retry_after},
                headers={"Retry-After": str(retry_after)},
            )
        except ReproError as exc:
            return self._error(400, str(exc))
        self.app.metrics.job_submitted()
        return self._send_json(201, job.to_detail())

    def do_DELETE(self) -> None:  # noqa: N802
        match = _JOB_ROUTE.match(self.path.split("?", 1)[0])
        if not match or match.group(2) is not None:
            return self._error(404, f"no such resource: {self.path}")
        job = self._job_or_404(match.group(1))
        if job is None:
            return None
        try:
            self.app.store.cancel(job.id)
        except EvaluationError as exc:
            return self._error(409, str(exc))
        status = job.to_summary()["status"]
        if status == CANCELLED:
            # Queued-job cancel settles here, not in a scheduler lane:
            # account for it and apply retention now.
            self.app.metrics.job_settled(CANCELLED)
            self.app.scheduler.gc()
        return self._send_json(
            200,
            {"id": job.id, "status": status,
             "cancelling": status not in SETTLED},
        )

    # -- SSE -----------------------------------------------------------
    def _stream_events(self, job: Job) -> None:
        """Stream the job's event log as Server-Sent Events.

        Honors ``Last-Event-ID``: the cursor is clamped to the job's
        event-log range (see :func:`clamp_cursor`), retained events
        after it are replayed one by one, and if the cursor fell behind
        the replay window, one ``snapshot`` event (current progress
        plus the prefix aggregate) stands in for everything missed.
        The stream ends after a terminal event or at daemon shutdown.
        """
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()

        store = self.app.store
        self.app.metrics.sse_opened()
        try:
            with job.cond:
                cursor = clamp_cursor(
                    self.headers.get("Last-Event-ID"), job.seq
                )
                first_retained = job.events[0][0] if job.events else job.seq + 1
                snapshot = None
                if cursor < first_retained - 1 or (cursor == 0 and job.seq == 0):
                    snapshot = job.progress_data()
                    cursor = job.seq
            if snapshot is not None:
                self.wfile.write(
                    encode_event(
                        snapshot, event="snapshot",
                        id=cursor if cursor else None, retry=SSE_RETRY_MS,
                    )
                )
            else:
                # A standalone retry frame: no data (so no dispatched
                # event), but per spec it sets the stream-wide
                # reconnection time the moment the line is processed.
                self.wfile.write(f"retry: {SSE_RETRY_MS}\n\n".encode("utf-8"))
            self.wfile.flush()

            last_write = time.monotonic()
            while not store.closed:
                with job.cond:
                    batch = [event for event in job.events if event[0] > cursor]
                    if not batch:
                        if job.status in SETTLED and cursor >= job.seq:
                            return  # terminal already delivered; done
                        job.cond.wait(0.5)
                        batch = [event for event in job.events if event[0] > cursor]
                for seq, name, data in batch:
                    self.wfile.write(encode_event(data, event=name, id=seq))
                    cursor = seq
                    if name in TERMINAL_EVENTS:
                        self.wfile.flush()
                        return
                if batch:
                    self.wfile.flush()
                    last_write = time.monotonic()
                elif time.monotonic() - last_write >= KEEPALIVE_S:
                    self.wfile.write(b": keep-alive\n\n")
                    self.wfile.flush()
                    last_write = time.monotonic()
        except (BrokenPipeError, ConnectionResetError):
            return  # client went away; nothing to clean up
        finally:
            self.app.metrics.sse_closed()


class ServeApp:
    """Everything the daemon owns: store, scheduler, pools, HTTP server.

    Binding happens in the constructor so startup failures (port in
    use, bad state dir) surface as one-line
    :class:`~repro.errors.EvaluationError`\\ s before any thread starts.

    ``max_concurrent_jobs`` lanes execute jobs concurrently, each on
    its own :class:`WorkerPool` partition of roughly
    ``workers / max_concurrent_jobs`` processes (at least one per
    lane, so lanes can exceed ``workers`` when it is smaller than the
    lane count).  ``max_queued_jobs`` bounds admission (429 when
    full); ``retain_jobs``/``retain_age_s`` configure settled-job GC.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8734,
        state_dir: str = "repro-serve",
        workers: int = 2,
        max_concurrent_jobs: int = 1,
        max_queued_jobs: Optional[int] = None,
        retain_jobs: Optional[int] = None,
        retain_age_s: Optional[float] = None,
        inject_crash: Optional[dict] = None,
        quiet: bool = False,
    ):
        self.quiet = quiet
        if max_concurrent_jobs < 1:
            raise EvaluationError(
                f"--max-concurrent-jobs must be >= 1, got {max_concurrent_jobs}"
            )
        if workers < 1:
            raise EvaluationError(f"--jobs must be >= 1, got {workers}")
        try:
            os.makedirs(state_dir, exist_ok=True)
        except OSError as exc:
            raise EvaluationError(
                f"cannot create state dir {state_dir!r}: {exc.strerror or exc}"
            ) from None
        if not os.access(state_dir, os.W_OK):
            raise EvaluationError(f"state dir {state_dir!r} is not writable")
        self.metrics = ServeMetrics()
        self.store = JobStore(state_dir, max_queued=max_queued_jobs)
        per_lane = max(1, workers // max_concurrent_jobs)
        self.pools = [WorkerPool(per_lane) for _ in range(max_concurrent_jobs)]
        self.scheduler = JobScheduler(
            self.store,
            self.pools,
            inject_crash=inject_crash,
            metrics=self.metrics,
            retain_jobs=retain_jobs,
            retain_age_s=retain_age_s,
        )
        try:
            self.httpd = ThreadingHTTPServer((host, port), _Handler)
        except OSError as exc:
            raise EvaluationError(
                f"cannot bind http://{host}:{port}: {exc.strerror or exc}"
            ) from None
        self.httpd.daemon_threads = True
        self.httpd.app = self  # type: ignore[attr-defined]
        self._serve_thread: Optional[threading.Thread] = None
        self._stopped = False

    @property
    def total_workers(self) -> int:
        return sum(pool.workers for pool in self.pools)

    # -- lifecycle -----------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        host, port = self.httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ServeApp":
        recovered = self.store.recover(quiet=self.quiet)
        requeued = [job for job in recovered if job.status == "queued"]
        if requeued and not self.quiet:
            sys.stderr.write(
                f"serve: recovered {len(recovered)} job(s), "
                f"resuming {len(requeued)}: "
                f"{', '.join(job.id for job in requeued)}\n"
            )
        # Apply retention to what recovery loaded before running
        # anything: a daemon restarted after months prunes stale
        # settled jobs up front.
        self.scheduler.gc()
        self.scheduler.start()
        self._serve_thread = threading.Thread(
            target=self.httpd.serve_forever, name="repro-serve-http", daemon=True
        )
        self._serve_thread.start()
        return self

    def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain every lane (each
        in-flight job goes back to queued with its checkpoint intact),
        wake every SSE subscriber, terminate the worker pools."""
        if self._stopped:
            return
        self._stopped = True
        self.httpd.shutdown()
        self.scheduler.drain()
        if self.scheduler.is_alive():
            self.scheduler.join(timeout=60.0)
        self.store.close()
        self.httpd.server_close()
        for pool in self.pools:
            pool.shutdown()

    def run_until_signal(self) -> int:
        """Foreground mode for the CLI: serve until SIGINT/SIGTERM."""
        received: list[int] = []
        done = threading.Event()

        def handle(signum: int, _frame) -> None:
            # Second signal: give up on graceful and exit immediately.
            signal.signal(signal.SIGINT, signal.default_int_handler)
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            received.append(signum)
            done.set()

        previous = {
            signum: signal.signal(signum, handle)
            for signum in (signal.SIGINT, signal.SIGTERM)
        }
        try:
            self.start()
            host, port = self.address
            print(
                f"serving on http://{host}:{port} "
                f"(state dir {self.store.state_dir!r}, "
                f"{len(self.pools)} lane(s) x "
                f"{self.pools[0].workers} worker(s)); Ctrl-C to stop"
            )
            done.wait()
            signum = received[0] if received else signal.SIGTERM
            print(
                f"shutting down on {signal.Signals(signum).name}: draining "
                f"in-flight jobs (progress is checkpointed; restart resumes them)"
            )
            self.stop()
            return 128 + signum
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)

    # -- rendering -----------------------------------------------------
    def _jobs_by_status(self) -> dict[str, int]:
        by_status: dict[str, int] = {}
        for job in self.store.list_jobs():
            status = job.to_summary()["status"]
            by_status[status] = by_status.get(status, 0) + 1
        return by_status

    def health(self) -> dict:
        return {
            "status": "ok",
            "jobs": self._jobs_by_status(),
            "queue_depth": self.store.queue_depth(),
            "lanes": len(self.scheduler.lanes),
            "lanes_busy": self.scheduler.busy,
            "workers": self.total_workers,
        }

    def retry_after_hint(self) -> int:
        """Seconds until the admission queue plausibly has a slot.

        Queue depth times the mean settled-job wall time, divided
        across the lanes.  Before any job has settled there is no wall
        time to learn from, but queue depth is still a signal: a
        cold-start hint assumes 5 s per queued job instead of answering
        a flat 5 s regardless of how much work is already waiting.  A
        hint, not a promise — both paths share the [1 s, 600 s] clamp.
        """
        depth = self.store.queue_depth()
        lanes = len(self.scheduler.lanes)
        mean_wall = self.metrics.mean_wall_s()
        per_job = 5.0 if mean_wall is None else mean_wall
        estimate = per_job * max(depth, 1) / lanes
        return max(1, min(600, int(estimate + 0.5)))

    def render_metrics(self) -> str:
        """The ``GET /metrics`` Prometheus-text exposition."""
        return self.metrics.render(
            jobs_by_status=self._jobs_by_status(),
            queue_depth=self.store.queue_depth(),
            lanes_busy=self.scheduler.busy,
            lanes_total=len(self.scheduler.lanes),
            pools=[
                (index, pool.workers, pool.in_flight)
                for index, pool in enumerate(self.pools)
            ],
        )

    def render_report(self, job: Job) -> str:
        """The job dashboard: final result if done, live prefix else."""
        with job.cond:
            status = job.status
            result_text = job.result_text
            if result_text is None:
                data = {
                    "fleet": {
                        "sessions": job.payload["sessions"],
                        "seed": job.payload["seed"],
                        "shard_size": job.payload["shard_size"],
                        "shards": job.shards_total,
                    },
                    "run": {
                        "sessions_completed": job.sessions_completed,
                        "retries": 0,
                        "failed_shards": [],
                    },
                    "aggregate": (
                        merge_partials(job.partials)
                        if job.partials
                        else FleetAggregate()
                    ).to_dict(),
                }
            else:
                data = json.loads(result_text)
        progress = job.to_detail()["progress"]
        status_line = (
            f"status: {status} — {progress['shards_done']}/"
            f"{progress['shards_total']} shards, "
            f"{progress['sessions_completed']}/{progress['sessions_total']} sessions"
        )
        if status == RUNNING:
            status_line += " (live partial aggregate; refresh for updates)"
        elif status == CANCELLED:
            status_line += " (cancelled; aggregate covers completed shards only)"
        return render_fleet_html(data, title=f"fleet {job.id}", status_line=status_line)

    def render_index(self) -> str:
        rows = []
        for job in self.store.list_jobs():
            summary = job.to_summary()
            # Everything interpolated here originates from a request
            # payload or the state dir (recovered records can carry
            # arbitrary ids and spec values) — escape it all, not just
            # the fields that look dangerous today.
            esc = {
                key: html.escape(str(summary[key]), quote=True)
                for key in (
                    "id", "status", "shards_done", "shards_total", "sessions",
                )
            }
            rows.append(
                "<tr>"
                f'<td><a href="/jobs/{esc["id"]}">{esc["id"]}</a></td>'
                f"<td>{esc['status']}</td>"
                f"<td>{esc['shards_done']}/{esc['shards_total']}</td>"
                f"<td>{esc['sessions']}</td>"
                f'<td><a href="/jobs/{esc["id"]}/report">report</a> · '
                f'<a href="/jobs/{esc["id"]}/events">events</a></td>'
                "</tr>"
            )
        body = (
            "<table><tr><th>job</th><th>status</th><th>shards</th>"
            "<th>sessions</th><th>links</th></tr>" + "".join(rows) + "</table>"
            if rows
            else "<p>No jobs yet. Submit one with "
            "<code>curl -X POST /jobs -d '{\"sessions\": 64}'</code>.</p>"
        )
        return (
            "<!doctype html><html><head><meta charset='utf-8'>"
            "<title>repro serve</title></head><body>"
            "<h1>repro serve — fleet jobs</h1>" + body + "</body></html>"
        )


def main_serve(
    host: str,
    port: int,
    state_dir: str,
    workers: int,
    max_concurrent_jobs: int = 1,
    max_queued_jobs: Optional[int] = None,
    retain_jobs: Optional[int] = None,
    retain_age_s: Optional[float] = None,
    quiet: bool = False,
) -> int:
    """CLI entry: build the app (startup errors raise one-line
    :class:`EvaluationError`), then serve until signalled."""
    inject = os.environ.get("REPRO_FLEET_INJECT_CRASH")
    app = ServeApp(
        host=host,
        port=port,
        state_dir=state_dir,
        workers=workers,
        max_concurrent_jobs=max_concurrent_jobs,
        max_queued_jobs=max_queued_jobs,
        retain_jobs=retain_jobs,
        retain_age_s=retain_age_s,
        inject_crash=json.loads(inject) if inject else None,
        quiet=quiet,
    )
    return app.run_until_signal()
