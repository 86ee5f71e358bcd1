"""Discrete-event simulation kernel.

This package is the timing substrate for everything else in the
reproduction: the hardware platform, the browser engine, and the
GreenWeb runtime all advance on the same simulated clock.

Public surface:

* :class:`~repro.sim.kernel.Kernel` — the event loop.
* :class:`~repro.sim.clock.SimTime` helpers — all kernel-facing time is
  integer **microseconds** to keep event ordering exact.
* :class:`~repro.sim.tracing.SessionObserver` — the typed hooks a
  session reports its facts through; :class:`~repro.sim.tracing.TraceLog`
  is the observer that retains them as a structured event log.
* :class:`~repro.sim.random.RngStreams` — named, seeded RNG streams so
  every experiment is deterministic.
"""

from repro.sim.clock import (
    MICROSECOND,
    MILLISECOND,
    SECOND,
    ms_to_us,
    s_to_us,
    us_to_ms,
    us_to_s,
)
from repro.sim.kernel import Kernel, ScheduledEvent
from repro.sim.random import RngStreams
from repro.sim.tracing import SessionObserver, TraceLog, TraceRecord

__all__ = [
    "Kernel",
    "ScheduledEvent",
    "SessionObserver",
    "TraceLog",
    "TraceRecord",
    "RngStreams",
    "MICROSECOND",
    "MILLISECOND",
    "SECOND",
    "ms_to_us",
    "s_to_us",
    "us_to_ms",
    "us_to_s",
]
