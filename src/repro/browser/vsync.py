"""VSync signal source.

Mobile displays refresh at 60 Hz; browsers only produce frames on
VSync to avoid tearing (paper Sec. 6.3).  The source fires a callback
on a fixed phase grid (``start_time + k * period``); the browser
decides at each tick whether a frame is needed (dirty bit set, rAF
handlers pending, animations active).

Ticks are demand-driven.  A long interaction session is mostly idle:
thousands of ticks would find no dirty state, no rAF handlers, and no
animations, yet each one would cost a kernel heap push/pop.  The
``demand`` predicate makes the source stop re-arming after an idle
tick and resume — via :meth:`request` — when the browser next creates
work for it.  Resumed ticks land on the same grid, so frame timing is
that of a source ticking every period; only the no-op ticks in between
are never scheduled.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import BrowserError
from repro.sim.kernel import Kernel

#: 60 Hz refresh in integer microseconds (the 1/3 us truncation per
#: tick is irrelevant at the millisecond QoS granularity).
VSYNC_PERIOD_US: int = 16_667


class VsyncSource:
    """Fires ``on_tick`` every ``period_us`` while started.

    Args:
        kernel: the simulation kernel.
        on_tick: tick callback, receives the current time in us.
        period_us: refresh period (default 60 Hz).
        demand: predicate; an idle tick (one after which ``demand()``
            is false) does not re-arm, and the browser must call
            :meth:`request` when new work appears.
    """

    def __init__(
        self,
        kernel: Kernel,
        on_tick: Callable[[int], None],
        period_us: int = VSYNC_PERIOD_US,
        *,
        demand: Callable[[], bool],
    ) -> None:
        if period_us <= 0:
            raise BrowserError(f"non-positive VSync period: {period_us}")
        self._kernel = kernel
        self._on_tick = on_tick
        self.period_us = period_us
        self._demand = demand
        self._running = False
        self._tick_count = 0
        self._event = None
        self._origin_us = 0

    @property
    def running(self) -> bool:
        return self._running

    @property
    def armed(self) -> bool:
        """Whether a tick is currently scheduled."""
        return self._event is not None

    @property
    def tick_count(self) -> int:
        """Number of VSync ticks delivered so far."""
        return self._tick_count

    def start(self) -> None:
        """Begin ticking (first tick one period from now)."""
        if self._running:
            return
        self._running = True
        self._origin_us = self._kernel.now_us
        self._arm_at(self._origin_us + self.period_us)

    def stop(self) -> None:
        """Stop ticking (pending tick is cancelled)."""
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def request(self) -> None:
        """Ensure the next grid-aligned tick is armed.

        Called by the browser when it creates work a tick must service
        (dirty state, a rAF request, an animation).  No-op while a tick
        is already pending.
        """
        # _event is the pending tick or None (a tick clears it as it
        # fires, stop() as it cancels), so it is the armed test.
        if not self._running or self._event is not None:
            return
        elapsed = self._kernel._now_us - self._origin_us
        self._arm_at(
            self._origin_us + (elapsed // self.period_us + 1) * self.period_us
        )

    def _arm_at(self, time_us: int) -> None:
        self._event = self._kernel.schedule_at(time_us, self._fire, label="vsync")

    def _fire(self) -> None:
        if not self._running:
            return
        self._tick_count += 1
        now = self._kernel._now_us
        demand = self._demand
        # Re-arm before the handler so a long handler cannot drift the
        # phase: ticks stay on the fixed 60 Hz grid.  An idle tick
        # stops the chain; request() restarts it on-grid.
        if demand():
            self._arm_at(now + self.period_us)
            self._on_tick(now)
            return
        self._event = None
        self._on_tick(now)
        if self._event is None and demand():
            # The handler itself created fresh demand on an idle tick.
            self._arm_at(now + self.period_us)
