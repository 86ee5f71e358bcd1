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
re-armed itself.  The handle stays ``pending`` until it is cancelled.

Quiet ticks
-----------
A series registered with a ``closed_form`` (see :class:`ClosedForm`)
can be *elided*: when such a head is about to fire and says it is
quiet, the kernel scans the heap once for the window end W, the
minimum of ``deadline + 1``, the time of every live entry that is not
a quiet series, and each quiet series' first tick that is not closed
form.  Every quiet-series tick strictly before W is applied through
``skip_ticks`` instead of its action; nothing else fires inside the
window, so every sampler's quiet predicate holds throughout it.  A
tick at exactly W sorts after the real event at W (its re-armed
sequence number is fresh), so it fires for real.  The elided series
take fresh sequence numbers in the order fired ticks would have
re-armed them (see :meth:`Kernel._elide`).  The jump neither moves the
clock nor runs an action, and it never changes a result.

``events_fired`` counts *simulated* events: fired plus elided, so it
reads the same whether a tick fired or was applied in closed form.
``events_elided`` holds the elided part by label, an execution fact
that never enters a result.

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
import sys
from typing import Callable, Optional, Protocol

from repro.errors import SchedulingError

Action = Callable[[], None]

# Heap entries are plain (time_us, seq, event) tuples: the unique seq
# breaks every tie, so comparison never reaches the event object, and
# tuple comparison is several times cheaper than a dataclass with
# generated __lt__ — the heap push/pop pair is the kernel's hot path.
_HeapEntry = tuple[int, int, "ScheduledEvent"]

#: ``ClosedForm.quiet_ticks`` for a sampler that stays quiet until some
#: other event fires: every upcoming tick is a no-op or closed form.
QUIET_UNTIL_WOKEN = sys.maxsize


class ClosedForm(Protocol):
    """A periodic sampler's closed form, passed to :meth:`Kernel.every`.

    Only the kernel's firing loop calls them, and it calls
    ``skip_ticks(k)`` only for ticks ``quiet_ticks`` covered, with no
    other event fired in between.
    """

    def quiet_ticks(self) -> int:
        """How many upcoming ticks are provably no-ops or closed form if
        no other event fires in between (0: the sampler is not quiet;
        :data:`QUIET_UNTIL_WOKEN`: no limit)."""

    def skip_ticks(self, ticks: int) -> None:
        """Apply ``ticks`` quiet ticks at once."""


class ScheduledEvent:
    """Handle for a scheduled callback.

    Attributes:
        time_us: absolute firing time in microseconds.
        label: optional human-readable tag, shown in the handle's repr
            and keying :attr:`Kernel.events_elided`.
        period_us: the series period of a :meth:`Kernel.every` handle,
            0 for a one-shot event.
        closed_form: the series' :class:`ClosedForm`, or None.

    A periodic handle reads ``fired`` only while its action runs;
    ``time_us`` is then the tick in progress.
    """

    __slots__ = (
        "time_us", "action", "label", "period_us", "closed_form", "_cancelled", "_fired"
    )

    def __init__(
        self,
        time_us: int,
        action: Action,
        label: str = "",
        period_us: int = 0,
        closed_form: Optional[ClosedForm] = None,
    ) -> None:
        self.time_us = time_us
        self.action = action
        self.label = label
        self.period_us = period_us
        self.closed_form = closed_form
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
        self._events_elided: dict[str, int] = {}
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
        """Simulated events so far: callbacks run plus quiet ticks
        applied in closed form (see the module doc)."""
        return self._events_fired

    @property
    def events_elided(self) -> dict[str, int]:
        """Quiet periodic ticks applied in closed form so far, by label
        (a copy; part of :attr:`events_fired`)."""
        return dict(self._events_elided)

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

    def every(
        self,
        period_us: int,
        action: Action,
        label: str = "",
        *,
        closed_form: Optional[ClosedForm] = None,
    ) -> ScheduledEvent:
        """Fire ``action`` at now + k * ``period_us`` for k = 1, 2, ...

        Each tick fires in place at the top of the heap; after its
        action returns, the same entry is re-armed one period later
        (unless the action cancelled it), so events the action scheduled
        for the next tick's timestamp fire first.  The handle is
        ``pending`` between ticks until it is cancelled.  An exception
        out of the action ends the series.  With a ``closed_form``,
        quiet ticks may be applied through it instead of the action
        (see the module doc); every result is the same either way.

        Raises:
            SchedulingError: if ``period_us`` is not positive.
        """
        if period_us <= 0:
            raise SchedulingError(f"non-positive period for {label!r}: {period_us}us")
        event = ScheduledEvent(
            self._now_us + period_us, action, label, period_us, closed_form
        )
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
                period_us = event.period_us
                if not period_us:
                    self._now_us = time_us
                    event._fired = True
                    self._events_fired += 1
                    heappop(heap)
                    event.action()
                    continue
                closed_form = event.closed_form
                if (
                    closed_form is not None
                    and closed_form.quiet_ticks()
                    and self._elide(deadline_us)
                ):
                    continue
                self._now_us = time_us
                event._fired = True
                self._events_fired += 1
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

    def _elide(self, deadline_us: int) -> bool:
        """Apply, in closed form, every quiet-series tick before the
        window end (see the module doc); False when the head's own tick
        is not before it, so the head fires as usual.

        Re-arm order: fired ticks re-arm each series when its last tick
        in the window fires, so the series are ordered by that tick's
        time, then by when its entry was armed.  An entry with one
        elided tick was armed before the window (its old sequence number
        is smaller than any fresh one); one with more was armed by its
        previous tick, at ``last - period``.  Two series that also tie
        there share the period and tick in lockstep, and the one whose
        first elided tick is later leads, because its entry at that tick
        was armed before the window and the other's inside it; a full
        tie falls back to the old sequence numbers.
        """
        heap = self._heap
        window_end = deadline_us + 1
        quiet = []
        for index, entry in enumerate(heap):
            time_us, _seq, event = entry
            # An entry at or past the window end can neither lower it
            # nor have a tick before it.
            if time_us >= window_end or event._cancelled:
                continue
            closed_form = event.closed_form
            if closed_form is not None:
                ticks = closed_form.quiet_ticks()
                if ticks:
                    quiet.append((index, entry))
                    if ticks == QUIET_UNTIL_WOKEN:
                        continue
                    time_us += ticks * event.period_us
            if time_us < window_end:
                window_end = time_us
        if window_end <= heap[0][0]:
            return False
        rearm = []
        for index, (first_us, seq, event) in quiet:
            if first_us < window_end:
                period_us = event.period_us
                ticks = (window_end - 1 - first_us) // period_us + 1
                last_us = first_us + (ticks - 1) * period_us
                armed_us = last_us - period_us if ticks > 1 else -1
                rearm.append((last_us, armed_us, -first_us, seq, index, ticks))
        rearm.sort()
        elided = self._events_elided
        for last_us, _armed, _first, _seq, index, ticks in rearm:
            event = heap[index][2]
            event.closed_form.skip_ticks(ticks)
            time_us = event.time_us = last_us + event.period_us
            heap[index] = (time_us, self._seq, event)
            self._seq += 1
            self._events_fired += ticks
            elided[event.label] = elided.get(event.label, 0) + ticks
        heapq.heapify(heap)
        return True

    def run_for(self, duration_us: int) -> None:
        """Run the simulation forward by ``duration_us`` microseconds."""
        self.run_until(self._now_us + duration_us)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Kernel t={self._now_us}us pending={self.pending_count}>"
