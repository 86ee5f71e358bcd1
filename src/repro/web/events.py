"""Events and the LTM user-interaction model (paper Sec. 3.1).

The paper's scope is the mobile event vocabulary: ``click``,
``scroll``, ``touchstart``, ``touchend`` and ``touchmove`` (desktop
events like ``drag``/``mouseover`` are explicitly excluded).  The LTM
model maps the three primitive user interactions onto event sequences:

* **Loading** (L): the page ``load`` event.
* **Tapping** (T): ``touchstart`` then ``touchend`` then ``click``.
* **Moving** (M): ``touchstart`` then a stream of ``touchmove`` /
  ``scroll`` events, then ``touchend``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import DomError
from repro.web.dom import Element


class EventType(str, enum.Enum):
    """DOM event names used in the reproduction.

    The five mobile-interaction events are the paper's annotation
    targets; ``LOAD`` models page loading; ``TRANSITIONEND`` and
    ``ANIMATIONEND`` exist because AutoGreen registers them to detect
    CSS transitions/animations (paper Sec. 5).
    """

    CLICK = "click"
    SCROLL = "scroll"
    TOUCHSTART = "touchstart"
    TOUCHEND = "touchend"
    TOUCHMOVE = "touchmove"
    LOAD = "load"
    TRANSITIONEND = "transitionend"
    ANIMATIONEND = "animationend"

    def __str__(self) -> str:
        return self.value


#: The events that mobile user interactions trigger directly — the set
#: GreenWeb annotations target (paper Sec. 3.1).
MOBILE_EVENT_TYPES: frozenset[EventType] = frozenset(
    {
        EventType.CLICK,
        EventType.SCROLL,
        EventType.TOUCHSTART,
        EventType.TOUCHEND,
        EventType.TOUCHMOVE,
        EventType.LOAD,
    }
)

#: Desktop-only events the paper excludes; kept for validation tests.
DESKTOP_EVENT_TYPES: frozenset[str] = frozenset({"drag", "mouseover", "mouseout", "wheel"})


def coerce_event_type(name: "EventType | str") -> EventType:
    """Convert a string like ``"click"`` into an :class:`EventType`."""
    if isinstance(name, EventType):
        return name
    try:
        return EventType(name)
    except ValueError:
        raise DomError(
            f"unknown event type {name!r}; known: {[e.value for e in EventType]}"
        ) from None


class InteractionKind(enum.Enum):
    """The LTM primitives: Loading, Tapping, Moving (paper Fig. 2)."""

    LOADING = "loading"
    TAPPING = "tapping"
    MOVING = "moving"

    def __str__(self) -> str:
        return self.value


#: Which event types each LTM interaction can trigger (paper Table 1's
#: "Interaction" column maps the other way around).
INTERACTION_EVENTS: dict[InteractionKind, tuple[EventType, ...]] = {
    InteractionKind.LOADING: (EventType.LOAD,),
    InteractionKind.TAPPING: (EventType.TOUCHSTART, EventType.TOUCHEND, EventType.CLICK),
    InteractionKind.MOVING: (
        EventType.TOUCHSTART,
        EventType.TOUCHMOVE,
        EventType.SCROLL,
        EventType.TOUCHEND,
    ),
}


@dataclass
class Event:
    """A dispatched DOM event instance.

    Attributes:
        type: the event type.
        target: the element the event fired on.
        input_id: unique id of the user *input* that produced the event
            (the UID of the Msg metadata in the paper's Fig. 8); -1
            until the browser assigns one.
        time_us: dispatch timestamp in simulated microseconds.
    """

    type: EventType
    target: Element
    input_id: int = -1
    time_us: int = 0
    #: Free-form payload (e.g. scroll delta); not interpreted by the engine.
    detail: dict = field(default_factory=dict)

    @property
    def propagation_path(self) -> list[Element]:
        """Bubbling path: target first, then ancestors to the root."""
        return [self.target, *self.target.ancestors()]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Event {self.type} on {self.target!r} input={self.input_id}>"


def dispatch_order(event: Event) -> list[tuple[Element, "object"]]:
    """Resolve the (element, callback) pairs to run for ``event``:
    capture phase first (root toward target), then target + bubble
    phase (target toward root) — the DOM event-flow model.

    The browser engine executes these as one callback task per pair;
    ``stopPropagation()`` from any callback halts the remainder.
    """
    pairs: list[tuple[Element, object]] = []
    path = event.propagation_path
    event_type = event.type.value
    # Capture: ancestors root-first, excluding the target itself.
    for element in reversed(path[1:]):
        for callback in element.listeners(event_type, capture=True):
            pairs.append((element, callback))
    # Target (both phases fire at the target, capture-registered first).
    for callback in event.target.listeners(event_type, capture=True):
        pairs.append((event.target, callback))
    # Bubble: target then ancestors.
    for element in path:
        for callback in element.listeners(event_type):
            pairs.append((element, callback))
    return pairs
