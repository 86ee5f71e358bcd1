"""Session observers and the retained trace log.

A session reports the facts its metrics are computed from through the
typed hooks of :class:`SessionObserver`: an input dispatched and
completed, a configuration applied, a frame displayed, the GreenWeb
runtime's predictions and observations, and busy-context transitions.
``MobilePlatform.attach`` puts an observer on the list of each hook its
class overrides; each emit site walks only its hook's list, in attach
order.  Folds, the runner's accountant and the ``interactive`` governor
override only the hooks they read.

:class:`TraceLog` is one more observer, the retaining one: each hook
but ``busy_changed`` becomes a :class:`TraceRecord`, kept in emission
order and indexed per ``(category, name)`` so :meth:`~TraceLog.filter`/
:meth:`~TraceLog.count` touch only matching records.  Facts that only a trace reads (console
errors, callback completions, animations, DVFS requests, scenario
events, task spans) are emitted straight to ``platform.trace`` under
``if trace is not None``.

A session has a trace or has none.  Results-only sessions run with
none and build no records; trace export and analysis attach one
(``SessionExecution(bundle, policy, trace=True)``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, Optional

if TYPE_CHECKING:
    from repro.browser.frame_tracker import FrameRecord, InputRecord
    from repro.browser.messages import InputMsg
    from repro.hardware.dvfs import CpuConfig


class SessionObserver:
    """Typed session hooks, each a no-op here: an observer overrides
    only the facts it reads.  ``time_us`` is the simulated time of the
    fact."""

    def input_dispatched(self, time_us: int, msg: "InputMsg") -> None:
        """A user input reached the browser process; fires before the
        policy's ``on_input``."""

    def input_completed(self, time_us: int, record: "InputRecord") -> None:
        """An input and every continuation it caused have finished."""

    def config_applied(self, time_us: int, config: "CpuConfig") -> None:
        """A configuration took effect (after its switching overhead)."""

    def frame_displayed(self, time_us: int, frame: "FrameRecord") -> None:
        """A frame reached the display; its latencies are final."""

    def predicted(self, time_us: int, key: str, target_ms: float, config: "CpuConfig",
                  predicted_us: float, predicted_energy_j: float, meets_target: bool,
                  boost: int) -> None:
        """The GreenWeb runtime requested ``config`` for event ``key``
        by its model: ``predicted_us`` (to 0.1 us) and
        ``predicted_energy_j`` (to 1 nJ) are the model's frame latency
        and energy there, ``boost`` the feedback steps above the
        prediction."""

    def observed(self, time_us: int, key: str, phase: str, observed_us: int,
                 target_us: int, violated: bool) -> None:
        """The GreenWeb runtime judged a displayed frame of event
        ``key`` in ``phase`` (a profiling phase or ``"stable"``)."""

    def busy_changed(self, time_us: int, busy_count: int, previous_count: int) -> None:
        """The number of busy execution contexts went from
        ``previous_count`` to ``busy_count``; fires after the energy
        meter has switched to the new power."""


#: every hook of :class:`SessionObserver`, one observer list each on the platform
HOOKS = tuple(name for name in vars(SessionObserver) if not name.startswith("_"))


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


class TraceLog(SessionObserver):
    """Append-only in-memory trace with indexed category filters: every
    record, retained in emission order."""

    def __init__(self) -> None:
        self._records: list[TraceRecord] = []
        self._by_category: dict[str, list[TraceRecord]] = {}
        self._by_key: dict[tuple[str, str], list[TraceRecord]] = {}

    def emit(self, time_us: int, category: str, name: str, **data: Any) -> None:
        """Append a record."""
        record = TraceRecord(time_us, category, name, data)
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

    # Each fact hook becomes one record; a dispatch is named by its
    # event type.
    def input_dispatched(self, time_us, msg):
        self.emit(time_us, "input", msg.event_type.value, uid=msg.uid, target=msg.target_key)

    def input_completed(self, time_us, record):
        self.emit(time_us, "input", "complete", uid=record.uid, frames=record.frame_count)

    def config_applied(self, time_us, config):
        self.emit(time_us, "config", "applied", cluster=config.cluster, freq_mhz=config.freq_mhz)

    def frame_displayed(self, time_us, frame):
        self.emit(time_us, "frame", "displayed", seq=frame.seq, uids=tuple(frame.uids),
                  complexity=frame.complexity, max_latency_us=frame.max_latency_us)

    def predicted(self, time_us, key, target_ms, config, predicted_us, predicted_energy_j,
                  meets_target, boost):
        self.emit(time_us, "greenweb", "predict", key=key, target_ms=target_ms,
                  config=str(config), predicted_us=predicted_us,
                  predicted_energy_j=predicted_energy_j, meets_target=meets_target,
                  boost=boost)

    def observed(self, time_us, key, phase, observed_us, target_us, violated):
        self.emit(time_us, "greenweb", "observe", key=key, phase=phase,
                  observed_us=observed_us, target_us=target_us, violated=violated)

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
        """Drop all records."""
        self._records.clear()
        self._by_category.clear()
        self._by_key.clear()
