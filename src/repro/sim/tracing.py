"""Structured trace log.

Components append :class:`TraceRecord` entries (timestamp, category,
name, payload dict).  The evaluation harness computes every paper metric
from traces rather than from ad-hoc counters, which keeps the
measurement path uniform across governors and makes tests able to
assert on the exact sequence of platform decisions.

Because the measurement path *is* the hot path at population scale, a
``TraceLog`` has two levels:

* ``"full"`` — every record is constructed, retained in memory, and
  indexed per ``(category, name)`` so :meth:`filter`/:meth:`count`
  touch only matching records instead of scanning the whole log;
* ``"gated"`` — only the :data:`GATED_CATEGORIES` records are
  constructed and records are *not* retained: they flow to subscribers
  (streaming folds, see :mod:`repro.evaluation.folds`) and are dropped,
  so memory per session is constant.

Only callers that read the retained trace (trace export, analysis)
ask for ``"full"``; every API that returns just results runs gated.

Hot emit sites should guard expensive payload construction with
:meth:`TraceLog.wants` so a gated log skips the formatting work
entirely, not just the record append.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional

from repro.errors import SimulationError

#: The trace levels :class:`TraceLog` accepts.
TRACE_LEVELS: tuple[str, ...] = ("full", "gated")

#: The category allowlist of level ``"gated"``: what the
#: evaluation runner's streaming folds consume — input windows (active
#: energy accounting) and applied configurations (residency).  Every
#: figure and fleet aggregate derives from these plus non-trace
#: counters, which is why gating to this set leaves results unchanged.
GATED_CATEGORIES: frozenset[str] = frozenset({"input", "config"})


class TraceRecord:
    """A single trace entry.

    A ``__slots__`` class rather than a (frozen) dataclass: records are
    constructed on the emit hot path, and the generated frozen-dataclass
    ``__init__`` pays an ``object.__setattr__`` per field.

    Attributes:
        time_us: simulated timestamp.
        category: coarse source, e.g. ``"dvfs"``, ``"frame"``, ``"input"``.
        name: event name within the category, e.g. ``"migrate"``.
        data: free-form payload (kept small; values should be scalars).
    """

    __slots__ = ("time_us", "category", "name", "data")

    def __init__(
        self, time_us: int, category: str, name: str, data: Optional[dict] = None
    ) -> None:
        self.time_us = time_us
        self.category = category
        self.name = name
        self.data = data if data is not None else {}

    def __getitem__(self, key: str) -> Any:
        return self.data[key]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return (
            self.time_us == other.time_us
            and self.category == other.category
            and self.name == other.name
            and self.data == other.data
        )

    def __repr__(self) -> str:
        return (
            f"TraceRecord(time_us={self.time_us!r}, category={self.category!r}, "
            f"name={self.name!r}, data={self.data!r})"
        )


class TraceLog:
    """Append-only in-memory trace with indexed category filters.

    Args:
        level: ``"full"`` retains and indexes every record;
            ``"gated"`` constructs only :data:`GATED_CATEGORIES` records
            and delivers them to subscribers without storing them —
            :meth:`filter`/:meth:`count` see nothing and memory stays
            constant no matter how long the run is.
    """

    def __init__(self, level: str = "full") -> None:
        if level not in TRACE_LEVELS:
            raise SimulationError(
                f"unknown trace level {level!r}; known: {list(TRACE_LEVELS)}"
            )
        self._retain = level == "full"
        self._categories = None if self._retain else GATED_CATEGORIES
        self._records: list[TraceRecord] = []
        self._by_category: dict[str, list[TraceRecord]] = {}
        self._by_key: dict[tuple[str, str], list[TraceRecord]] = {}
        self._subscribers: list[Callable[[TraceRecord], None]] = []

    @property
    def retaining(self) -> bool:
        """Whether emitted records are stored for later scans."""
        return self._retain

    def wants(self, category: str) -> bool:
        """True when a record in ``category`` would be kept — the guard
        hot emit sites use to skip building payloads nobody will read."""
        return self._categories is None or category in self._categories

    def emit(self, time_us: int, category: str, name: str, **data: Any) -> None:
        """Append a record (no-op when gated out)."""
        if self._categories is not None and category not in self._categories:
            return
        record = TraceRecord(time_us, category, name, data)
        if self._retain:
            self._records.append(record)
            by_category = self._by_category.get(category)
            if by_category is None:
                by_category = self._by_category[category] = []
            by_category.append(record)
            key = (category, name)
            by_key = self._by_key.get(key)
            if by_key is None:
                by_key = self._by_key[key] = []
            by_key.append(record)
        for subscriber in self._subscribers:
            subscriber(record)

    def subscribe(self, callback: Callable[[TraceRecord], None]) -> None:
        """Register a live listener invoked on every emitted record."""
        self._subscribers.append(callback)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    @property
    def records(self) -> list[TraceRecord]:
        """All records, in emission order (do not mutate)."""
        return self._records

    def filter(
        self,
        category: Optional[str] = None,
        name: Optional[str] = None,
        since_us: int = 0,
        until_us: Optional[int] = None,
    ) -> list[TraceRecord]:
        """Return records matching the given constraints.

        Category/name lookups go through per-``(category, name)``
        indices, so the cost is proportional to the number of *matching*
        records, not the full log.
        """
        if category is not None and name is not None:
            candidates = self._by_key.get((category, name), [])
        elif category is not None:
            candidates = self._by_category.get(category, [])
        else:
            candidates = self._records
        if name is not None and category is None:
            candidates = [r for r in candidates if r.name == name]
        if since_us == 0 and until_us is None:
            return list(candidates)
        return [
            record
            for record in candidates
            if record.time_us >= since_us
            and (until_us is None or record.time_us <= until_us)
        ]

    def count(self, category: Optional[str] = None, name: Optional[str] = None) -> int:
        """Count records matching the constraints (index lookup when a
        category is given; never scans non-matching records)."""
        if category is not None and name is not None:
            return len(self._by_key.get((category, name), []))
        if category is not None:
            return len(self._by_category.get(category, []))
        if name is not None:
            return sum(1 for record in self._records if record.name == name)
        return len(self._records)

    def clear(self) -> None:
        """Drop all records (subscribers stay registered)."""
        self._records.clear()
        self._by_category.clear()
        self._by_key.clear()
