"""Shard execution: the module-level entry point worker processes run.

:func:`run_shard_job` is deliberately boring — plain dict in, plain
dict out, importable without side effects — so a
:class:`~repro.fleet.pool.WorkerPool` can pickle it by reference and a
future RPC backend could call it over the wire unchanged.  Each shard
runs its sessions sequentially in population order and folds them into
one partial
:class:`~repro.fleet.aggregate.FleetAggregate`, which is all that
crosses back to the driver: memory per shard is constant in the number
of sessions.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

from repro.evaluation.runner import run_workload_job
from repro.fleet.aggregate import FleetAggregate


def ignore_interrupts() -> None:
    """Pool-worker initializer: interruption belongs to the driver.

    A terminal Ctrl-C delivers SIGINT to the whole foreground process
    group — workers included.  The driver owns the shutdown sequence
    (stop submitting, flush the checkpoint, terminate the workers), so
    workers ignore SIGINT and wait to be terminated instead of dying
    mid-shard and poisoning the pool with ``BrokenProcessPool`` noise.

    SIGTERM is reset to the default action for the opposite reason:
    fork copies the parent's signal dispositions, so without the reset
    a worker forked after the driver installed its graceful SIGTERM
    handler would *survive* ``process.terminate()`` — the handler just
    sets a flag that nothing in the worker reads — and every shutdown
    would stall out the five-second join before escalating to SIGKILL.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _maybe_inject_crash(payload: dict) -> None:
    """Test-only fault hook: fail this shard's first N attempts.

    ``inject_crash = {"shard": i, "attempts": n,
    "mode": "raise"|"sleep"|"exit"}`` makes shard ``i`` misbehave while
    ``attempt < n`` — raising (a shard crash), sleeping past the shard
    timeout (a hang), or ending its worker process with ``os._exit(1)``
    (a hard worker death; run inline, where the worker is the driver
    itself, it raises instead); a list value for ``"shard"`` targets
    several shards at once (e.g. to hang every worker simultaneously).
    The driver's retry/timeout machinery is exercised by real failures,
    not mocks, yet production payloads never set the key.
    """
    crash = payload.get("inject_crash")
    if not crash:
        return
    targets = crash.get("shard")
    if not isinstance(targets, (list, tuple)):
        targets = [targets]
    if payload["shard"] not in targets:
        return
    if payload.get("attempt", 0) >= crash.get("attempts", 1):
        return
    mode = crash.get("mode", "raise")
    if mode == "sleep":
        time.sleep(float(crash.get("sleep_s", 60.0)))
    elif mode == "exit" and multiprocessing.parent_process() is not None:
        os._exit(1)
    else:
        raise RuntimeError(
            f"injected crash in shard {payload['shard']} "
            f"(attempt {payload.get('attempt', 0)})"
        )


def run_shard_job(payload: dict) -> dict:
    """Run one shard and return its partial aggregate as plain data.

    Payload keys: ``shard`` (index), ``sessions`` (list of
    ``run_workload_job`` argument dicts, population order), ``attempt``
    (0-based retry counter, driver-provided), and the optional
    test-only ``inject_crash``.
    """
    _maybe_inject_crash(payload)
    aggregate = FleetAggregate()
    for job in payload["sessions"]:
        aggregate.add_run(run_workload_job(job))
    return {
        "shard": payload["shard"],
        "sessions": len(payload["sessions"]),
        "aggregate": aggregate.to_dict(),
    }
