"""Energy metering by exact integration of piecewise-constant power.

The paper measures energy with 10 mOhm sense resistors sampled at
1 kHz by a NI DAQ and integrates power over real execution time.  In
the simulator, platform power is piecewise constant between state
changes (task start/stop, DVFS apply), so we integrate *exactly* at
each change — equivalent to the limit of infinitely fast sampling.
The meter keeps running totals only, never a power history, so its
footprint is constant however long a session runs.
"""

from __future__ import annotations

from repro.errors import HardwareError
from repro.hardware.power import PowerBreakdown


class EnergyMeter:
    """Integrates platform power into energy.

    The meter must be driven in non-decreasing time order; the platform
    calls :meth:`on_power_change` at every power-affecting event and
    :meth:`finalize` when a run ends.
    """

    def __init__(self, start_us: int = 0) -> None:
        self._last_change_us = start_us
        self._current_power_w = 0.0
        self._total_j = 0.0

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def on_power_change(self, now_us: int, breakdown: PowerBreakdown) -> None:
        """Account energy up to ``now_us`` then switch to the new power."""
        # _integrate_to inlined (the platform calls this on every busy,
        # idle and apply transition): same check, same float expressions.
        last_us = self._last_change_us
        if now_us != last_us:
            if now_us < last_us:
                raise HardwareError(
                    f"energy meter driven backwards: {now_us} < {last_us}"
                )
            dt_us = now_us - last_us
            self._total_j += self._current_power_w * dt_us * 1e-6
            self._last_change_us = now_us
        self._current_power_w = breakdown.total_w

    def finalize(self, now_us: int) -> None:
        """Integrate the trailing interval up to ``now_us``."""
        self._integrate_to(now_us)

    def _integrate_to(self, now_us: int) -> None:
        if now_us < self._last_change_us:
            raise HardwareError(
                f"energy meter driven backwards: {now_us} < {self._last_change_us}"
            )
        dt_us = now_us - self._last_change_us
        if dt_us > 0:
            self._total_j += self._current_power_w * dt_us * 1e-6
        self._last_change_us = now_us

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def total_j(self) -> float:
        """Total integrated energy (joules) up to the last change/finalize."""
        return self._total_j

    @property
    def current_power_w(self) -> float:
        """The instantaneous power currently being integrated."""
        return self._current_power_w
