"""Fleet-as-a-service: the ``repro serve`` HTTP daemon.

The batch ``repro fleet`` CLI answers one population question and
exits; this package keeps the machinery resident.  A stdlib-only HTTP
daemon accepts simulation jobs (``POST /jobs`` with the same knobs as
the CLI, plus a scheduling ``priority``), executes up to
``--max-concurrent-jobs`` of them at once — each scheduler lane on its
own persistent :class:`repro.fleet.WorkerPool` partition — streams
mergeable aggregate folds over Server-Sent Events as shards complete,
renders an HTML policy dashboard per job, exposes Prometheus metrics
on ``GET /metrics``, bounds admission (429 + ``Retry-After`` on a full
queue), garbage-collects settled jobs per the retention flags, and —
because every job has its own fsync'd checkpoint journal — resumes
every in-flight job after a daemon restart with byte-identical
results.

Quickstart::

    python -m repro serve --port 8734 --jobs 4 --state-dir ./serve-state

    curl -X POST localhost:8734/jobs \\
         -d '{"sessions": 200, "seed": 7, "mix": "todo:greenweb,cnet:perf"}'
    curl -N localhost:8734/jobs/job-0001/events     # live SSE stream
    curl localhost:8734/jobs/job-0001/report        # HTML dashboard

Guarantees (inherited from :mod:`repro.fleet` and preserved end to
end): the terminal ``result`` SSE event is byte-identical to
``repro fleet --json-out`` for the same spec and seed, and a
killed-then-restarted daemon produces the same bytes as one that was
never interrupted.
"""

from repro.fleet import merge_partials
from repro.serve.jobs import Job, JobScheduler, JobStore, QueueFull
from repro.serve.metrics import ServeMetrics
from repro.serve.schemas import build_fleet_spec, normalize_job_payload
from repro.serve.server import ServeApp, clamp_cursor, main_serve
from repro.serve.sse import ServerEvent, encode_event, iter_events

__all__ = [
    "Job",
    "JobScheduler",
    "JobStore",
    "QueueFull",
    "ServeApp",
    "ServeMetrics",
    "ServerEvent",
    "build_fleet_spec",
    "clamp_cursor",
    "encode_event",
    "iter_events",
    "main_serve",
    "merge_partials",
    "normalize_job_payload",
]
