"""Fleet simulation: populations of sessions, run in parallel.

The single-session :class:`repro.Session` answers "what does governor G
do to application A?".  This package answers the production question:
"what happens across a whole *population* of users?" — a weighted mix
of applications, governors, and scenarios, fanned out over worker
processes and folded into constant-memory mergeable aggregates.

Quickstart::

    from repro.fleet import Fleet, FleetSpec, parse_mix

    spec = FleetSpec(sessions=1000, seed=7,
                     mix=parse_mix("todo:greenweb=3,cnet:perf"))
    result = Fleet(spec, jobs=4).run()
    print(result.aggregate.energy_j.sum,
          result.aggregate.by_governor["greenweb"].violation_pct.mean)

Guarantees:

* **Determinism** — the aggregate (and its JSON form) is byte-identical
  for any ``jobs`` value at the same (sessions, seed, mix).
* **Failure isolation** — a crashed or hung shard is retried up to a
  bound, then recorded in ``result.failures``; it never kills the run.
* **Constant memory** — only per-shard partial aggregates cross process
  boundaries, never per-session results.
* **Interruptibility** — with ``checkpoint=PATH`` each accepted shard
  partial is durably appended as it lands; SIGINT/SIGTERM stops the run
  gracefully (workers terminated, checkpoint flushed) and
  ``resume=True`` picks up where it left off, producing byte-identical
  output to an uninterrupted run.

CLI equivalent: ``python -m repro fleet --sessions 1000 --jobs 4
--seed 7 --mix "todo:greenweb=3,cnet:perf" --json-out fleet.json
--checkpoint fleet.ckpt`` (add ``--resume`` after an interruption).
"""

from repro.fleet.aggregate import (
    Accumulator,
    FleetAggregate,
    GroupAggregate,
    Histogram,
    cell_key,
    split_cell_key,
)
from repro.fleet.checkpoint import CHECKPOINT_VERSION, CheckpointStore, scan_checkpoint
from repro.fleet.driver import Fleet, FleetResult, ShardFailure
from repro.fleet.pool import WorkerPool
from repro.fleet.spec import (
    DEFAULT_SHARD_SIZE,
    FINGERPRINT_VERSION,
    FleetSpec,
    MixEntry,
    SessionSpec,
    Shard,
    default_mix,
    parse_mix,
)
from repro.fleet.worker import run_shard_job

__all__ = [
    "Accumulator",
    "CHECKPOINT_VERSION",
    "CheckpointStore",
    "DEFAULT_SHARD_SIZE",
    "FINGERPRINT_VERSION",
    "Fleet",
    "FleetAggregate",
    "FleetResult",
    "FleetSpec",
    "GroupAggregate",
    "Histogram",
    "MixEntry",
    "SessionSpec",
    "Shard",
    "ShardFailure",
    "WorkerPool",
    "cell_key",
    "default_mix",
    "parse_mix",
    "run_shard_job",
    "scan_checkpoint",
    "split_cell_key",
]
