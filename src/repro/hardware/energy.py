"""Energy metering by exact integration of piecewise-constant power.

The paper measures energy with 10 mOhm sense resistors sampled at
1 kHz by a NI DAQ and integrates power over real execution time.  In
the simulator, platform power is piecewise constant between state
changes (task start/stop, DVFS apply), so we integrate *exactly* at
each change — equivalent to the limit of infinitely fast sampling.  A
:meth:`EnergyMeter.sample_trace` helper reconstructs the 1 kHz sampled
view for tests and plots that want the paper's measurement grain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import HardwareError
from repro.hardware.power import PowerBreakdown


@dataclass(frozen=True)
class PowerInterval:
    """One interval of constant platform power."""

    start_us: int
    end_us: int
    power_w: float

    @property
    def duration_us(self) -> int:
        return self.end_us - self.start_us

    @property
    def energy_j(self) -> float:
        return self.power_w * self.duration_us * 1e-6


class EnergyMeter:
    """Integrates platform power into energy, with named marks.

    The meter must be driven in non-decreasing time order; the platform
    calls :meth:`on_power_change` at every power-affecting event and
    :meth:`finalize` when a run ends.
    """

    def __init__(self, start_us: int = 0, record_intervals: bool = True) -> None:
        self._last_change_us = start_us
        self._current_power_w = 0.0
        self._current_dynamic_w = 0.0
        self._total_j = 0.0
        self._dynamic_j = 0.0
        self._marks: dict[str, float] = {}
        self._record = record_intervals
        self._intervals: list[PowerInterval] = []

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def on_power_change(self, now_us: int, breakdown: PowerBreakdown) -> None:
        """Account energy up to ``now_us`` then switch to the new power."""
        self._integrate_to(now_us)
        self._current_power_w = breakdown.total_w
        self._current_dynamic_w = breakdown.dynamic_w

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
            self._dynamic_j += self._current_dynamic_w * dt_us * 1e-6
            if self._record and self._current_power_w >= 0:
                self._intervals.append(
                    PowerInterval(self._last_change_us, now_us, self._current_power_w)
                )
        self._last_change_us = now_us

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def total_j(self) -> float:
        """Total integrated energy (joules) up to the last change/finalize."""
        return self._total_j

    @property
    def dynamic_j(self) -> float:
        """The dynamic (switching) component of the total."""
        return self._dynamic_j

    @property
    def current_power_w(self) -> float:
        """The instantaneous power currently being integrated."""
        return self._current_power_w

    def mark(self, label: str, now_us: int) -> None:
        """Snapshot the energy counter under ``label`` (integrates first)."""
        self._integrate_to(now_us)
        self._marks[label] = self._total_j

    def since_mark(self, label: str, now_us: Optional[int] = None) -> float:
        """Energy (joules) accumulated since ``mark(label)`` was taken."""
        if label not in self._marks:
            raise HardwareError(f"unknown energy mark {label!r}")
        if now_us is not None:
            self._integrate_to(now_us)
        return self._total_j - self._marks[label]

    @property
    def intervals(self) -> list[PowerInterval]:
        """The piecewise-constant power history (if recording)."""
        return self._intervals

    def sample_trace(self, period_us: int = 1_000) -> list[tuple[int, float]]:
        """Reconstruct a sampled (time_us, power_w) trace at ``period_us``
        granularity — the paper's 1 kHz DAQ view of the same run."""
        if not self._record:
            raise HardwareError("interval recording disabled; no trace available")
        if period_us <= 0:
            raise HardwareError(f"non-positive sample period: {period_us}")
        samples: list[tuple[int, float]] = []
        if not self._intervals:
            return samples
        t = self._intervals[0].start_us
        end = self._intervals[-1].end_us
        index = 0
        while t < end:
            while index < len(self._intervals) and self._intervals[index].end_us <= t:
                index += 1
            if index >= len(self._intervals):
                break
            samples.append((t, self._intervals[index].power_w))
            t += period_us
        return samples
