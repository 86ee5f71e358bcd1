"""Interaction traces and the replay driver (the Mosaic substitute).

A trace is a deterministic, timestamped list of user inputs (the paper
replays recorded interactions with Mosaic to eliminate human noise,
Sec. 7.1).  Trace builders compose the LTM primitives:

* ``load_interaction`` — one ``load`` on the document root,
* ``tap`` — a ``click`` (optionally with the ``touchstart``/
  ``touchend`` envelope real touch screens deliver),
* ``move_burst`` — ``touchstart``, a stream of ``touchmove`` events at
  the touch-sample rate, ``touchend``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import WorkloadError
from repro.sim.clock import ms_to_us
from repro.web.events import EventType

if TYPE_CHECKING:  # pragma: no cover
    from repro.browser.engine import Browser

#: Touch-sample interval for Moving interactions (~60 Hz digitizer).
TOUCH_SAMPLE_US = 16_000


@dataclass(frozen=True)
class ScriptedEvent:
    """One input in a trace: what fires, where, and when."""

    at_us: int
    event_type: EventType
    target_id: str  # element id; "" targets the document root

    def __post_init__(self) -> None:
        if self.at_us < 0:
            raise WorkloadError(f"negative event time {self.at_us}")


@dataclass(frozen=True)
class InteractionTrace:
    """A deterministic, immutable sequence of user inputs.

    ``events`` is stored as a tuple of frozen :class:`ScriptedEvent`s,
    so one trace can be shared by every session that replays it.
    """

    name: str
    events: tuple[ScriptedEvent, ...] = ()
    _sorted: tuple[ScriptedEvent, ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self) -> None:
        events = tuple(self.events)
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "_sorted", tuple(sorted(events, key=lambda e: e.at_us)))

    def __len__(self) -> int:
        return len(self.events)

    @property
    def duration_us(self) -> int:
        """Time of the last input (the run itself settles afterwards)."""
        return self._sorted[-1].at_us if self._sorted else 0

    @property
    def duration_s(self) -> float:
        return self.duration_us / 1_000_000

    def sorted_events(self) -> tuple[ScriptedEvent, ...]:
        """The events in time order (stable for equal times)."""
        return self._sorted


# ----------------------------------------------------------------------
# Trace builders
# ----------------------------------------------------------------------
def load_interaction(at_us: int = 0) -> list[ScriptedEvent]:
    """The Loading (L) primitive: a page-load event on the root."""
    return [ScriptedEvent(at_us, EventType.LOAD, "")]


def tap(at_us: int, target_id: str, with_touch_envelope: bool = False) -> list[ScriptedEvent]:
    """The Tapping (T) primitive.

    With ``with_touch_envelope`` the tap delivers the real event triple
    ``touchstart``/``touchend``/``click`` (80 ms apart, as fingers do);
    otherwise just the ``click``.
    """
    if not with_touch_envelope:
        return [ScriptedEvent(at_us, EventType.CLICK, target_id)]
    return [
        ScriptedEvent(at_us, EventType.TOUCHSTART, target_id),
        ScriptedEvent(at_us + 80_000, EventType.TOUCHEND, target_id),
        ScriptedEvent(at_us + 85_000, EventType.CLICK, target_id),
    ]


def move_burst(
    at_us: int,
    target_id: str,
    move_count: int,
    sample_us: int = TOUCH_SAMPLE_US,
    as_scroll: bool = False,
) -> list[ScriptedEvent]:
    """The Moving (M) primitive: a finger drag/scroll gesture."""
    if move_count < 0:
        raise WorkloadError("move_count must be non-negative")
    move_type = EventType.SCROLL if as_scroll else EventType.TOUCHMOVE
    events = [ScriptedEvent(at_us, EventType.TOUCHSTART, target_id)]
    t = at_us
    for _ in range(move_count):
        t += sample_us
        events.append(ScriptedEvent(t, move_type, target_id))
    events.append(ScriptedEvent(t + sample_us, EventType.TOUCHEND, target_id))
    return events


def repeat_interaction(
    builder, repetitions: int, spacing_us: int, name: str
) -> InteractionTrace:
    """Repeat a single-interaction builder (``builder(at_us) -> events``)
    ``repetitions`` times at a fixed spacing — the micro-benchmark shape
    (Sec. 7.2 exercises one interaction repeatedly)."""
    events: list[ScriptedEvent] = []
    for index in range(repetitions):
        events.extend(builder(index * spacing_us))
    return InteractionTrace(name, tuple(events))


# ----------------------------------------------------------------------
# Replay driver
# ----------------------------------------------------------------------
class InteractionDriver:
    """Replays a trace into a browser (the Mosaic substitute)."""

    def __init__(self, browser: "Browser") -> None:
        self.browser = browser
        self.dispatched: list[ScriptedEvent] = []

    def schedule(self, trace: InteractionTrace) -> None:
        """Schedule every trace event at its absolute timestamp
        (relative to the current simulated time)."""
        base = self.browser.kernel.now_us
        for scripted in trace.sorted_events():
            self.browser.kernel.schedule_at(
                base + scripted.at_us,
                lambda s=scripted: self._fire(s),
                label=f"trace:{scripted.event_type}",
            )

    def _fire(self, scripted: ScriptedEvent) -> None:
        if scripted.target_id:
            target = self.browser.page.document.get_element_by_id(scripted.target_id)
            if target is None:
                raise WorkloadError(
                    f"trace targets missing element #{scripted.target_id} "
                    f"in page {self.browser.page.name!r}"
                )
        else:
            target = self.browser.page.document.root
        self.browser.dispatch_event(scripted.event_type, target)
        self.dispatched.append(scripted)

    def run(self, trace: InteractionTrace, settle_us: int = 3_000_000) -> None:
        """Schedule the trace, run past its end, then settle until all
        inputs complete (bounded)."""
        self.schedule(trace)
        self.browser.run_for(trace.duration_us + ms_to_us(100))
        self.browser.run_until_quiescent(max_extra_us=settle_us)
