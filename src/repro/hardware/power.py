"""Analytical CMOS power model.

Dynamic power of one busy core: ``P_dyn = Ceff * V^2 * f`` with ``Ceff``
in farads, ``V`` in volts and ``f`` in hertz.  Static (leakage) power of
a powered cluster: ``P_leak = k * V``.  An idle but powered cluster pays
leakage only; an unpowered cluster pays nothing.  A small
``deep_idle_w`` floor models the rest of the SoC's always-on rail.

The constants in :mod:`repro.hardware.core` are calibrated so that:

* a big core at 1.8 GHz draws ~1.5 W dynamic (plus ~0.3 W cluster
  leakage), a little core at 600 MHz ~0.1 W — matching published
  A15/A7 measurements to first order, and
* energy-per-work monotonically decreases from big-max toward the
  little cluster, giving the runtime a genuine trade-off space
  (see DESIGN.md Sec. 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.core import ClusterSpec
from repro.hardware.frequency import OperatingPoint


@dataclass(frozen=True)
class PowerBreakdown:
    """Instantaneous platform power decomposed by source (watts)."""

    dynamic_w: float
    static_w: float
    base_w: float
    #: the sum of the three, taken once: the energy meter reads it on
    #: every power change
    total_w: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "total_w", self.dynamic_w + self.static_w + self.base_w)


class PowerModel:
    """Computes instantaneous power from cluster state and busy counts.

    Args:
        deep_idle_w: constant platform floor (always-on rails, memory
            retention) paid by every governor alike.
        wfi_idle_factor: fraction of cluster leakage still paid when the
            cluster is powered but has no runnable work — cpuidle's WFI
            clock-gating cuts dynamic power entirely and part of the
            effective static draw, but (as on the Exynos 5410, which
            lacks idle power-collapse for the big cluster) a high-V
            idle cluster still leaks substantially.  This is the term
            that makes *Perf* pay for parking at big-max between frames.
    """

    def __init__(self, deep_idle_w: float = 0.012, wfi_idle_factor: float = 0.15) -> None:
        self.deep_idle_w = deep_idle_w
        self.wfi_idle_factor = wfi_idle_factor

    def core_dynamic_w(self, spec: ClusterSpec, opp: OperatingPoint) -> float:
        """Dynamic power of a single busy core at ``opp`` (watts)."""
        ceff_farads = spec.ceff_nf * 1e-9
        freq_hz = opp.freq_mhz * 1e6
        return ceff_farads * opp.voltage_v**2 * freq_hz

    def cluster_static_w(self, spec: ClusterSpec, opp: OperatingPoint) -> float:
        """Leakage power of a powered cluster at ``opp``'s voltage."""
        return spec.leakage_w_per_v * opp.voltage_v

    def cluster_power_w(
        self, spec: ClusterSpec, opp: OperatingPoint, busy_cores: int, powered: bool
    ) -> float:
        """Total power of one cluster given how many cores are busy.

        A fully idle cluster pays ``wfi_idle_factor`` of its leakage
        (WFI clock-gating); a cluster with any busy core pays full
        leakage plus per-busy-core dynamic power.
        """
        if not powered:
            return 0.0
        busy = min(max(busy_cores, 0), spec.core_count)
        if busy == 0:
            return self.cluster_static_w(spec, opp) * self.wfi_idle_factor
        return self.cluster_static_w(spec, opp) + busy * self.core_dynamic_w(spec, opp)

    def breakdown(
        self,
        clusters: list[tuple[ClusterSpec, OperatingPoint, int, bool]],
    ) -> PowerBreakdown:
        """Platform power from ``(spec, opp, busy_cores, powered)`` rows."""
        dynamic = 0.0
        static = 0.0
        for spec, opp, busy_cores, powered in clusters:
            if not powered:
                continue
            busy = min(max(busy_cores, 0), spec.core_count)
            dynamic += busy * self.core_dynamic_w(spec, opp)
            if busy == 0:
                static += self.cluster_static_w(spec, opp) * self.wfi_idle_factor
            else:
                static += self.cluster_static_w(spec, opp)
        return PowerBreakdown(dynamic_w=dynamic, static_w=static, base_w=self.deep_idle_w)

    def energy_per_mcycle_uj(self, spec: ClusterSpec, opp: OperatingPoint) -> float:
        """Energy (microjoules) to retire one million *reference* cycles
        on one core at ``opp``, charging dynamic plus this core's share
        of leakage.  Used by tests to assert the trade-off space shape.
        """
        time_s = 1e6 / (spec.ipc_factor * opp.freq_mhz * 1e6)
        power_w = self.core_dynamic_w(spec, opp) + self.cluster_static_w(spec, opp)
        return power_w * time_s * 1e6
