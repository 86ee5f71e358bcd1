"""DVFS operating points (OPPs) and per-cluster frequency tables.

The paper's platform (Sec. 7.1): big Cortex-A15 cores run 800 MHz to
1.8 GHz at 100 MHz granularity; little Cortex-A7 cores run 350 MHz to
600 MHz at 50 MHz granularity.  Voltages follow a linear V-f curve
calibrated to published Exynos-class operating ranges; the absolute
values only need to produce the right *shape* of the energy-delay
trade-off space (see DESIGN.md Sec. 2).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.errors import FrequencyError


@dataclass(frozen=True, order=True)
class OperatingPoint:
    """One DVFS operating point: a (frequency, voltage) pair.

    Ordering is by frequency (then voltage), so OPPs sort naturally from
    slowest to fastest.
    """

    freq_mhz: int
    voltage_v: float

    def __post_init__(self) -> None:
        if self.freq_mhz <= 0:
            raise FrequencyError(f"non-positive frequency: {self.freq_mhz} MHz")
        if self.voltage_v <= 0:
            raise FrequencyError(f"non-positive voltage: {self.voltage_v} V")

    def __str__(self) -> str:
        return f"{self.freq_mhz}MHz@{self.voltage_v:.3f}V"


class OppTable:
    """An ordered, immutable table of operating points for one cluster."""

    def __init__(self, points: Sequence[OperatingPoint]) -> None:
        if not points:
            raise FrequencyError("OPP table must contain at least one point")
        ordered = sorted(points)
        freqs = [p.freq_mhz for p in ordered]
        if len(set(freqs)) != len(freqs):
            raise FrequencyError(f"duplicate frequencies in OPP table: {freqs}")
        self._points: tuple[OperatingPoint, ...] = tuple(ordered)
        self._by_freq = {p.freq_mhz: p for p in ordered}

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[OperatingPoint]:
        return iter(self._points)

    def __contains__(self, freq_mhz: int) -> bool:
        return freq_mhz in self._by_freq

    @property
    def points(self) -> tuple[OperatingPoint, ...]:
        """All OPPs, slowest first."""
        return self._points

    @property
    def frequencies(self) -> tuple[int, ...]:
        """All frequencies in MHz, ascending."""
        return tuple(p.freq_mhz for p in self._points)

    @property
    def min(self) -> OperatingPoint:
        """The slowest OPP."""
        return self._points[0]

    @property
    def max(self) -> OperatingPoint:
        """The fastest OPP."""
        return self._points[-1]

    def at(self, freq_mhz: int) -> OperatingPoint:
        """Exact lookup by frequency.

        Raises:
            FrequencyError: if the frequency is not an OPP of this table.
        """
        try:
            return self._by_freq[freq_mhz]
        except KeyError:
            raise FrequencyError(
                f"{freq_mhz} MHz is not an operating point; "
                f"available: {list(self.frequencies)}"
            ) from None


def _linear_voltage_curve(
    freqs_mhz: Sequence[int], v_min: float, v_max: float
) -> list[OperatingPoint]:
    lo, hi = min(freqs_mhz), max(freqs_mhz)
    span = hi - lo
    points = []
    for f in freqs_mhz:
        fraction = 0.0 if span == 0 else (f - lo) / span
        points.append(OperatingPoint(f, round(v_min + fraction * (v_max - v_min), 4)))
    return points


@functools.cache
def cortex_a15_opps() -> OppTable:
    """OPP table for the big (Cortex-A15) cluster: 800-1800 MHz, 100 MHz
    steps, 0.90 V to 1.23 V (one shared immutable table per process)."""
    freqs = list(range(800, 1801, 100))
    return OppTable(_linear_voltage_curve(freqs, v_min=0.90, v_max=1.23))


@functools.cache
def cortex_a7_opps() -> OppTable:
    """OPP table for the little (Cortex-A7) cluster: 350-600 MHz, 50 MHz
    steps, 0.90 V to 1.05 V (one shared immutable table per process)."""
    freqs = list(range(350, 601, 50))
    return OppTable(_linear_voltage_curve(freqs, v_min=0.90, v_max=1.05))
