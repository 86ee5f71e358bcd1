"""The runtime's energy model (paper Sec. 6.2).

"The energy model can be built based on the performance model and the
power consumption under different core and frequency settings.  We
profile the different power consumptions statically and hard-code them
into the runtime."

:class:`PowerTable` is that hard-coded table: busy power (one active
core + cluster leakage) per configuration, captured once from the
platform's power model at runtime construction.  Predicted frame
energy is then ``busy_power(config) * predicted_latency(config)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RuntimeModelError
from repro.hardware.dvfs import CpuConfig
from repro.hardware.platform import MobilePlatform
from repro.hardware.power import PowerModel


@dataclass(frozen=True)
class SweepTable:
    """Precomputed per-platform configuration table for the predictor.

    Parallel tuples, one entry per configuration in table order, so the
    sweep never touches a dict or ``CpuConfig`` attribute in its hot
    loop.
    """

    configs: tuple[CpuConfig, ...]
    #: distinct cluster names in first-appearance order
    cluster_names: tuple[str, ...]
    #: per-config index into :attr:`cluster_names`
    cluster_index: tuple[int, ...]
    freqs_mhz: tuple[int, ...]
    busy_power_w: tuple[float, ...]


def _platform_power_signature(platform: MobilePlatform):
    """Value key identifying everything :meth:`PowerTable.profile`
    reads, or ``None`` when the platform's power model is a subclass
    (whose overrides the key cannot capture)."""
    if type(platform.power_model) is not PowerModel:
        return None
    rows = []
    for config in platform.all_configs():
        spec = platform.cluster(config.cluster).spec
        opp = spec.opps.at(config.freq_mhz)
        rows.append(
            (config.cluster, config.freq_mhz, opp.voltage_v, spec.ceff_nf,
             spec.leakage_w_per_v)
        )
    return tuple(rows)


class PowerTable:
    """Statically profiled busy-power per <cluster, frequency> config."""

    #: identical platforms share one (immutable) profiled table; every
    #: session builds an identically-shaped ODroid, so this turns the
    #: per-session offline-profiling step into a lookup.
    _profile_cache: dict = {}

    def __init__(self, busy_power_w: dict[CpuConfig, float]) -> None:
        if not busy_power_w:
            raise RuntimeModelError("power table cannot be empty")
        self._busy_power_w = dict(busy_power_w)
        self._sweep_table: "SweepTable | None" = None

    @classmethod
    def profile(cls, platform: MobilePlatform) -> "PowerTable":
        """Build the table from a platform (the offline profiling step).

        Memoized on the platform's power-relevant state: the table only
        depends on cluster specs, OPP voltages, and the stock power
        model's coefficients, all immutable.
        """
        signature = _platform_power_signature(platform)
        if signature is not None:
            cached = cls._profile_cache.get(signature)
            if cached is not None:
                return cached
        table: dict[CpuConfig, float] = {}
        for config in platform.all_configs():
            spec = platform.cluster(config.cluster).spec
            opp = spec.opps.at(config.freq_mhz)
            table[config] = platform.power_model.core_dynamic_w(
                spec, opp
            ) + platform.power_model.cluster_static_w(spec, opp)
        result = cls(table)
        if signature is not None:
            cls._profile_cache[signature] = result
        return result

    def sweep_table(self) -> SweepTable:
        """The precomputed config table (built once, then cached)."""
        cached = self._sweep_table
        if cached is None:
            configs = tuple(self._busy_power_w)
            cluster_names = tuple(dict.fromkeys(c.cluster for c in configs))
            index = {name: i for i, name in enumerate(cluster_names)}
            cached = SweepTable(
                configs=configs,
                cluster_names=cluster_names,
                cluster_index=tuple(index[c.cluster] for c in configs),
                freqs_mhz=tuple(c.freq_mhz for c in configs),
                busy_power_w=tuple(self._busy_power_w[c] for c in configs),
            )
            self._sweep_table = cached
        return cached

    def busy_power_w(self, config: CpuConfig) -> float:
        """Busy power (watts) at ``config``.

        Raises:
            RuntimeModelError: for a configuration not in the table.
        """
        try:
            return self._busy_power_w[config]
        except KeyError:
            raise RuntimeModelError(f"no power entry for {config}") from None

    def configs(self) -> list[CpuConfig]:
        """All profiled configurations."""
        return list(self._busy_power_w)

    def frame_energy_j(self, config: CpuConfig, predicted_latency_us: float) -> float:
        """Predicted energy of a frame: busy power x predicted time."""
        if predicted_latency_us < 0:
            raise RuntimeModelError(f"negative latency: {predicted_latency_us}")
        return self.busy_power_w(config) * predicted_latency_us * 1e-6
