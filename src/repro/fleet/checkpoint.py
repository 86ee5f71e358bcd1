"""Durable fleet checkpoints: survive interruption, resume, lose nothing.

A million-session fleet takes hours; a Ctrl-C, OOM kill, or pre-empted
CI runner must not throw the completed shards away.  The driver appends
each accepted shard partial to a :class:`CheckpointStore` the moment it
is accepted, and ``--resume`` reloads those partials on startup and
skips their shards.

File format — line-oriented JSON (JSONL), append-only:

* line 1 is a **header** record::

      {"kind": "header", "version": 1, "fingerprint": {...}}

  where ``fingerprint`` is :meth:`repro.fleet.spec.FleetSpec.fingerprint`
  — the result-determining spec fields (sessions, seed, mix, shard_size,
  settle_s, trace_level) plus a code/schema version.  A resume refuses
  a checkpoint whose fingerprint does not match the current spec: its
  shards would merge into a different population's aggregate.
* every further line is one completed shard's partial::

      {"kind": "shard", "shard": 3, "sessions": 8, "aggregate": {...}}

Durability: records are written as whole lines, flushed, and fsync'd
before the driver accepts (or reports) any shard they carry, so a crash
loses at most the shards that were in flight.  A fresh checkpoint's
header is written with the first records, or earlier by
:meth:`CheckpointStore.write_header` (the pooled driver calls it once
its first wave of shards is running), never after them.  A record torn
by a crash mid-write (partial line, invalid JSON) is detected on
resume, dropped together with anything after it, and the file is
truncated back to the last intact record — the dropped shards simply
rerun.  Because partials always merge in shard-index
order, a resumed run's aggregate is byte-identical to an uninterrupted
one.
"""

from __future__ import annotations

import json
import os
from typing import BinaryIO, Optional

from repro.errors import EvaluationError

#: Bump when the checkpoint *file format* (not the aggregate schema —
#: that lives in the fingerprint version) changes incompatibly.
CHECKPOINT_VERSION = 1


def _encode(record: dict) -> bytes:
    return (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")


def scan_checkpoint(path: str) -> tuple[Optional[dict], dict[int, dict], int]:
    """Parse a checkpoint file, tolerating a torn tail.

    Returns ``(header, completed, intact_bytes)`` where ``completed``
    maps shard index to its partial (the exact dict shape
    :func:`repro.fleet.worker.run_shard_job` returns) and
    ``intact_bytes`` is the byte offset after the last intact record —
    everything past it is damage from an interrupted write and should
    be truncated away.  The first unreadable or incomplete record ends
    the scan; later lines are unreachable by the append-only writer's
    ordering guarantee, so nothing after damage is trusted.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    header: Optional[dict] = None
    completed: dict[int, dict] = {}
    intact_bytes = 0
    for raw in data.splitlines(keepends=True):
        if not raw.endswith(b"\n"):
            break  # torn final line: the writer died mid-record
        try:
            record = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            break
        if not isinstance(record, dict):
            break
        if header is None:
            if record.get("kind") != "header":
                raise EvaluationError(
                    f"{path} is not a fleet checkpoint (first record is "
                    f"not a header)"
                )
            header = record
        elif record.get("kind") == "shard":
            try:
                completed[int(record["shard"])] = {
                    "shard": int(record["shard"]),
                    "sessions": int(record["sessions"]),
                    "aggregate": record["aggregate"],
                }
            except (KeyError, TypeError, ValueError):
                break  # structurally damaged shard record: treat as torn
        # records of unknown kind are skipped but kept (forward compat)
        intact_bytes += len(raw)
    return header, completed, intact_bytes


class CheckpointStore:
    """Append-only shard-partial store backing ``--checkpoint/--resume``.

    Construct through :meth:`fresh` (truncate and start over) or
    :meth:`resume` (reload completed shards, validating the
    fingerprint); then :meth:`record` each accepted partial and
    :meth:`close` when the run ends.  ``completed`` holds the partials
    reloaded at open time, keyed by shard index.
    """

    def __init__(self, path: str, handle: BinaryIO, completed: dict[int, dict]):
        self.path = path
        self._handle: Optional[BinaryIO] = handle
        self.completed = completed
        #: a fresh checkpoint's header until it is written
        self._header: Optional[dict] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def fresh(cls, path: str, fingerprint: dict) -> "CheckpointStore":
        """Start a new checkpoint at ``path``, truncating any old one.

        The header is held back until :meth:`write_header`, the first
        :meth:`record`, or :meth:`close`, so its fsync need not delay
        the first shards.
        """
        store = cls(path, open(path, "wb"), completed={})
        store._header = {
            "kind": "header", "version": CHECKPOINT_VERSION, "fingerprint": fingerprint,
        }
        return store

    @classmethod
    def resume(cls, path: str, fingerprint: dict) -> "CheckpointStore":
        """Reopen ``path``, reload its completed shards, repair a torn
        tail, and refuse on any fingerprint mismatch.

        A missing or empty file (the previous run died before its
        header hit disk) degrades to a fresh checkpoint — there is
        nothing durable to disagree with.
        """
        if not os.path.exists(path) or os.path.getsize(path) == 0:
            return cls.fresh(path, fingerprint)
        header, completed, intact_bytes = scan_checkpoint(path)
        if header is None:
            raise EvaluationError(
                f"{path} is not a fleet checkpoint (unreadable header); "
                f"rerun without --resume to start over"
            )
        if header.get("version") != CHECKPOINT_VERSION:
            raise EvaluationError(
                f"checkpoint {path} uses format version "
                f"{header.get('version')!r}, this build writes "
                f"{CHECKPOINT_VERSION}; rerun without --resume to start over"
            )
        stored = header.get("fingerprint")
        if stored != fingerprint:
            keys = sorted(set(fingerprint) | set(stored or {}))
            mismatched = [
                key for key in keys
                if (stored or {}).get(key) != fingerprint.get(key)
            ]
            raise EvaluationError(
                f"checkpoint {path} was written for a different fleet spec "
                f"(mismatched: {', '.join(mismatched)}); resuming would "
                f"merge incompatible shards — rerun without --resume to "
                f"start over"
            )
        if intact_bytes < os.path.getsize(path):
            # Torn tail from an interrupted write: truncate back to the
            # last intact record so appends continue from clean state.
            os.truncate(path, intact_bytes)
        return cls(path, open(path, "ab"), completed=completed)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def _append(self, records: list[dict]) -> None:
        """Write ``records`` (after a pending header) with one fsync."""
        if self._handle is None:
            raise EvaluationError(f"checkpoint {self.path} is closed")
        if self._header is not None:
            records = [self._header, *records]
            self._header = None
        self._handle.write(b"".join(map(_encode, records)))
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def write_header(self) -> None:
        """Durably write a fresh checkpoint's header (no-op once written)."""
        if self._header is not None:
            self._append([])

    def record(self, *partials: dict) -> None:
        """Durably append accepted shard partials (dicts returned by
        :func:`repro.fleet.worker.run_shard_job`), one line each, with
        one fsync for the batch."""
        self._append(
            [
                {
                    "kind": "shard",
                    "shard": partial["shard"],
                    "sessions": partial["sessions"],
                    "aggregate": partial["aggregate"],
                }
                for partial in partials
            ]
        )

    def close(self) -> None:
        if self._handle is not None:
            self.write_header()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CheckpointStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
