"""The discrete-event simulation kernel.

A :class:`Kernel` owns a priority queue of timestamped callbacks and a
monotonically advancing integer clock (microseconds).  Components
schedule work with :meth:`Kernel.schedule_at` / :meth:`Kernel.schedule_in`
and the driver advances the simulation with :meth:`Kernel.run_until`
(or :meth:`Kernel.run_for`, which calls it).  ``run_until`` is the one
loop that pops the heap, runs an action and moves the clock.

Periodic events
---------------
:meth:`Kernel.every` fires an action at start + k * period.  A periodic
head fires *in place*: its heap entry stays at the top while the action
runs (anything the action schedules is at or after now with a larger
sequence number, so it sorts behind), and afterwards one
``heapreplace`` re-arms it one period later, or a pop drops it if the
action cancelled it.  The re-armed entry takes its sequence number
after the action, which is where a self-rescheduling callback would
schedule its next tick, so the heap order is the same as if the action
re-armed itself.  Each tick is one fired event; the handle stays
``pending`` until it is cancelled.

Ordering guarantees
-------------------
Events at the same timestamp fire in **insertion order** (a per-kernel
sequence number breaks ties).  This matters for the browser model: an
input arriving "at" a VSync tick must be processed after the tick if it
was scheduled later, exactly as a real event loop would interleave them.

Cancellation
------------
``schedule_*`` and ``every`` return a :class:`ScheduledEvent` handle;
cancelling it is O(1) (the heap entry is tombstoned and skipped on
pop).  Cancelling a periodic handle, from inside its action or from
anywhere else, ends the series.
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro.errors import SchedulingError

Action = Callable[[], None]

# Heap entries are plain (time_us, seq, event) tuples: the unique seq
# breaks every tie, so comparison never reaches the event object, and
# tuple comparison is several times cheaper than a dataclass with
# generated __lt__ — the heap push/pop pair is the kernel's hot path.
_HeapEntry = tuple[int, int, "ScheduledEvent"]


class ScheduledEvent:
    """Handle for a scheduled callback.

    Attributes:
        time_us: absolute firing time in microseconds.
        label: optional human-readable tag, shown in the handle's repr
            (a debugging aid; the kernel keeps no per-label counts).
        period_us: the series period of a :meth:`Kernel.every` handle,
            0 for a one-shot event.

    A periodic handle reads ``fired`` only while its action runs;
    ``time_us`` is then the tick in progress.
    """

    __slots__ = ("time_us", "action", "label", "period_us", "_cancelled", "_fired")

    def __init__(
        self, time_us: int, action: Action, label: str = "", period_us: int = 0
    ) -> None:
        self.time_us = time_us
        self.action = action
        self.label = label
        self.period_us = period_us
        self._cancelled = False
        self._fired = False

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` was called before the event fired."""
        return self._cancelled

    @property
    def fired(self) -> bool:
        """Whether the event's action has already run."""
        return self._fired

    @property
    def pending(self) -> bool:
        """True while the event is still waiting in the queue."""
        return not (self._cancelled or self._fired)

    def cancel(self) -> None:
        """Prevent the event from firing.  Cancelling a fired event is a
        no-op; the handle just records both flags."""
        self._cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else ("fired" if self._fired else "pending")
        tag = f" {self.label!r}" if self.label else ""
        return f"<ScheduledEvent t={self.time_us}us{tag} {state}>"


class Kernel:
    """Discrete-event simulation loop with an integer-microsecond clock."""

    def __init__(self, start_time_us: int = 0) -> None:
        if start_time_us < 0:
            raise SchedulingError("kernel start time must be non-negative")
        self._now_us = start_time_us
        self._heap: list[_HeapEntry] = []
        self._seq = 0
        self._events_fired = 0
        self._running = False

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now_us(self) -> int:
        """Current simulated time in microseconds."""
        return self._now_us

    @property
    def now_ms(self) -> float:
        """Current simulated time in milliseconds (convenience)."""
        return self._now_us / 1_000

    @property
    def events_fired(self) -> int:
        """Total number of callbacks executed so far."""
        return self._events_fired

    @property
    def pending_count(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return sum(1 for _t, _s, event in self._heap if event.pending)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(self, time_us: int, action: Action, label: str = "") -> ScheduledEvent:
        """Schedule ``action`` at absolute time ``time_us``.

        Raises:
            SchedulingError: if ``time_us`` is in the past.
        """
        if time_us < self._now_us:
            raise SchedulingError(
                f"cannot schedule at {time_us}us; clock is already at {self._now_us}us"
            )
        event = ScheduledEvent(time_us, action, label)
        heapq.heappush(self._heap, (time_us, self._seq, event))
        self._seq += 1
        return event

    def schedule_in(self, delay_us: int, action: Action, label: str = "") -> ScheduledEvent:
        """Schedule ``action`` after a relative delay (>= 0) in microseconds."""
        if delay_us < 0:
            raise SchedulingError(f"negative delay: {delay_us}us")
        # Inlined schedule_at (hot path): a non-negative delay can never
        # land in the past, so the past-time check is skipped.
        time_us = self._now_us + delay_us
        event = ScheduledEvent(time_us, action, label)
        heapq.heappush(self._heap, (time_us, self._seq, event))
        self._seq += 1
        return event

    def every(self, period_us: int, action: Action, label: str = "") -> ScheduledEvent:
        """Fire ``action`` at now + k * ``period_us`` for k = 1, 2, ...

        Each tick fires in place at the top of the heap; after its
        action returns, the same entry is re-armed one period later
        (unless the action cancelled it), so events the action scheduled
        for the next tick's timestamp fire first.  The handle is
        ``pending`` between ticks until it is cancelled.  An exception
        out of the action ends the series.

        Raises:
            SchedulingError: if ``period_us`` is not positive.
        """
        if period_us <= 0:
            raise SchedulingError(f"non-positive period for {label!r}: {period_us}us")
        event = ScheduledEvent(self._now_us + period_us, action, label, period_us)
        heapq.heappush(self._heap, (event.time_us, self._seq, event))
        self._seq += 1
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_until(self, deadline_us: int) -> None:
        """Run all events with timestamp <= ``deadline_us``, then advance
        the clock to exactly ``deadline_us``.

        Actions may schedule further events; newly scheduled events inside
        the window are processed in the same call.
        """
        if deadline_us < self._now_us:
            raise SchedulingError(
                f"deadline {deadline_us}us is before current time {self._now_us}us"
            )
        if self._running:
            raise SchedulingError("kernel is not reentrant: run_until called from an action")
        self._running = True
        try:
            # The only firing loop, and the kernel's hot path.
            heap = self._heap
            heappop = heapq.heappop
            heapreplace = heapq.heapreplace
            while heap:
                time_us, _seq, event = heap[0]
                if time_us > deadline_us:
                    break
                if event._cancelled:
                    heappop(heap)
                    continue
                self._now_us = time_us
                event._fired = True
                self._events_fired += 1
                period_us = event.period_us
                if not period_us:
                    heappop(heap)
                    event.action()
                    continue
                # A periodic head fires in place (see the module doc).
                try:
                    event.action()
                except BaseException:
                    heappop(heap)
                    raise
                if event._cancelled:
                    heappop(heap)
                else:
                    event._fired = False
                    time_us = event.time_us = time_us + period_us
                    heapreplace(heap, (time_us, self._seq, event))
                    self._seq += 1
            self._now_us = deadline_us
        finally:
            self._running = False

    def run_for(self, duration_us: int) -> None:
        """Run the simulation forward by ``duration_us`` microseconds."""
        self.run_until(self._now_us + duration_us)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Kernel t={self._now_us}us pending={self.pending_count}>"
