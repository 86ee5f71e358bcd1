"""Simulated time units and conversions.

The kernel's native unit is the integer microsecond.  Integers keep the
event heap totally ordered with no floating-point drift, which matters
because frame batching logic compares timestamps for exact equality
(e.g. "did this callback run before the VSync tick?").

Public API layers (benchmark reports, QoS targets) speak milliseconds;
these helpers do the conversions and centralise rounding policy: we
always round *up* when converting durations into kernel ticks so a
modelled duration is never silently shortened.
"""

from __future__ import annotations

import math

#: One microsecond in kernel ticks (the base unit).
MICROSECOND: int = 1
#: One millisecond in kernel ticks.
MILLISECOND: int = 1_000
#: One second in kernel ticks.
SECOND: int = 1_000_000

#: The shortest period a platform sampler accepts (the ``ondemand`` and
#: ``interactive`` governors' ``timer_rate_ms``, the ``bgload``
#: scenario's ``period_ms``): a finer one only multiplies ticks, and a
#: session at 0.1 us would fire millions of them.
MIN_SAMPLER_PERIOD_MS: float = 1.0

#: The default settle tail, in seconds: how long a measured session
#: keeps running after its trace's last input, so the frames and idle
#: power that input causes land inside the fixed measurement window.
SETTLE_S: float = 4.0


def ms_to_us(milliseconds: float) -> int:
    """Convert milliseconds to integer microseconds, rounding up.

    >>> ms_to_us(16.6)
    16600
    >>> ms_to_us(0.0001)
    1
    """
    if milliseconds < 0:
        raise ValueError(f"negative duration: {milliseconds} ms")
    if milliseconds == 0:
        return 0
    return max(1, math.ceil(milliseconds * MILLISECOND))


def s_to_us(seconds: float) -> int:
    """Convert seconds to integer microseconds, rounding up."""
    if seconds < 0:
        raise ValueError(f"negative duration: {seconds} s")
    if seconds == 0:
        return 0
    return max(1, math.ceil(seconds * SECOND))


def us_to_ms(ticks: int) -> float:
    """Convert kernel ticks (microseconds) to float milliseconds."""
    return ticks / MILLISECOND


def us_to_s(ticks: int) -> float:
    """Convert kernel ticks (microseconds) to float seconds."""
    return ticks / SECOND
