"""DVFS actuation: frequency switches and big/little core migration.

The paper reports (Sec. 7.1) a 100 us frequency-switching overhead and
a 20 us core-migration overhead on the Exynos 5410.  The controller
models both: during a switch the platform is paused (running tasks are
frozen, submitted work queues) and everything resumes at the new
configuration once the overhead elapses.

The controller also counts the two kinds of switches separately, which
is exactly the data Fig. 12 of the paper plots.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from repro.errors import HardwareError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hardware.core import ClusterSpec
    from repro.hardware.platform import MobilePlatform

#: Frequency-switch overhead within a cluster (paper Sec. 7.1).
FREQ_SWITCH_OVERHEAD_US = 100
#: Big/little migration overhead (paper Sec. 7.1).
MIGRATION_OVERHEAD_US = 20


class CpuConfig(NamedTuple):
    """An ACMP execution configuration: a <cluster, frequency> tuple.
    Equality, hashing and ordering are the plain tuple's (C level)."""

    cluster: str
    freq_mhz: int

    def __str__(self) -> str:
        return f"{self.cluster}@{self.freq_mhz}MHz"


class ConfigTable:
    """Every configuration a platform offers; the DVFS controller and
    the sampling governors answer every per-tick and per-switch question
    from it.  Immutable, and shared by every platform built from the
    same cluster specs (``config_table(specs)``).

    Attributes:
        configs: the interned members, in ``all_configs()`` order.
        interned: configuration -> its member; membership is validity.
        ladder: ``configs`` by capacity (IPC x MHz), ascending, stable.
        capacities: each ``ladder`` entry's capacity; rank: its index.
        labels: the kernel label of each configuration's DVFS apply.
        fastest_cluster, slowest_cluster: the cluster names with the
            highest and lowest peak capacity (IPC x f_max); the first
            in spec order wins a tie.
    """

    __slots__ = (
        "configs", "interned", "ladder", "capacities", "rank", "labels",
        "fastest_cluster", "slowest_cluster",
    )

    def __init__(self, specs: Sequence["ClusterSpec"]) -> None:
        ipc = {spec.name: spec.ipc_factor for spec in specs}
        ordered = sorted(specs, key=lambda spec: spec.ipc_factor)
        self.configs = tuple(CpuConfig(s.name, f) for s in ordered for f in s.opps.frequencies)
        self.interned = {config: config for config in self.configs}
        self.ladder = tuple(sorted(self.configs, key=lambda c: ipc[c.cluster] * c.freq_mhz))
        self.capacities = tuple(ipc[c.cluster] * c.freq_mhz for c in self.ladder)
        self.rank = {config: i for i, config in enumerate(self.ladder)}
        self.labels = {config: f"dvfs->{config}" for config in self.configs}
        peak = {spec.name: spec.ipc_factor * spec.opps.max.freq_mhz for spec in specs}
        self.fastest_cluster = max(peak, key=peak.__getitem__)
        self.slowest_cluster = min(peak, key=peak.__getitem__)


#: ``config_table(specs)``: the shared table of a tuple of cluster specs.
config_table = functools.lru_cache(maxsize=32)(ConfigTable)


class DvfsController:
    """Applies :class:`CpuConfig` requests to a platform with realistic
    switching overheads, coalescing requests that arrive mid-switch."""

    def __init__(
        self,
        platform: "MobilePlatform",
        freq_switch_overhead_us: int = FREQ_SWITCH_OVERHEAD_US,
        migration_overhead_us: int = MIGRATION_OVERHEAD_US,
    ) -> None:
        if freq_switch_overhead_us < 0 or migration_overhead_us < 0:
            raise HardwareError("switching overheads must be non-negative")
        self._platform = platform
        self.freq_switch_overhead_us = freq_switch_overhead_us
        self.migration_overhead_us = migration_overhead_us
        self.freq_switches = 0
        self.migrations = 0
        self._pending_target: Optional[CpuConfig] = None
        self._apply_event = None
        self._table = platform.config_table

    @property
    def in_flight(self) -> bool:
        """True while a switch overhead window is open."""
        return self._apply_event is not None and self._apply_event.pending

    @property
    def switch_count(self) -> int:
        """Total configuration switches (frequency + migration)."""
        return self.freq_switches + self.migrations

    def clamp(self, config: CpuConfig) -> CpuConfig:
        """``config`` adjusted to respect the platform's frequency caps:
        the fastest OPP of its cluster at or below the cap (the slowest
        OPP when the cap sits below the whole table).  Identity when the
        cluster is uncapped."""
        cap = self._platform.frequency_cap(config.cluster)
        if cap is None or config.freq_mhz <= cap:
            return config
        frequencies = self._platform.cluster(config.cluster).spec.opps.frequencies
        allowed = [freq for freq in frequencies if freq <= cap]
        return self._table.interned[
            CpuConfig(config.cluster, max(allowed) if allowed else min(frequencies))
        ]

    def enforce_caps(self) -> None:
        """Re-check the applied (or in-flight) configuration against the
        platform's frequency caps, initiating a down-switch when it
        violates them.  Called by
        :meth:`~repro.hardware.platform.MobilePlatform.set_frequency_cap`."""
        target = self._pending_target if self.in_flight else self._platform.config
        clamped = self.clamp(target)
        if clamped != target:
            self.request(clamped)

    def request(self, config: CpuConfig) -> bool:
        """Ask for a new configuration.

        Returns True if a switch was initiated (or an in-flight switch
        retargeted), False if the platform is already at ``config``
        (after clamping to any frequency cap in force — an over-cap
        request lands on the fastest allowed OPP instead).

        Raises:
            HardwareError: for an unknown cluster.
            FrequencyError: for a frequency not in the cluster's table.
        """
        platform = self._platform
        event = self._apply_event
        if config == platform._config and event is None:
            # Already applied, no switch in flight: unless a cap now sits
            # below it, the full path below would also return False.
            cap = platform._freq_caps.get(config.cluster)
            if cap is None or config.freq_mhz <= cap:
                return False
        interned = self._table.interned.get(config)
        if interned is None:  # off the table: the cluster or OPP lookup names the fault
            platform.cluster(config.cluster).spec.opps.at(config.freq_mhz)
            raise HardwareError(f"{config} is not a configuration of this platform")
        config = self.clamp(interned) if platform._freq_caps else interned

        if event is not None and not (event._cancelled or event._fired):  # in flight
            # Coalesce: retarget the pending apply.  If the retarget makes
            # the switch a no-op, cancel it entirely and resume.
            if config == platform._config and self._pending_target != config:
                self._cancel_in_flight()
                return False
            self._pending_target = config
            return True

        if config == platform._config:
            return False

        migrating = config.cluster != platform._active_name
        if migrating:
            self.migrations += 1
            overhead = self.migration_overhead_us
        else:
            self.freq_switches += 1
            overhead = self.freq_switch_overhead_us

        if platform.trace is not None:
            platform.trace.emit(
                platform.kernel.now_us,
                "dvfs",
                "migrate" if migrating else "freq_switch",
                frm=str(platform.config),
                to=str(config),
                overhead_us=overhead,
            )

        self._pending_target = config
        platform._pause_all_contexts()
        self._apply_event = platform.kernel.schedule_in(
            overhead, self._apply, label=self._table.labels[config]
        )
        return True

    def _cancel_in_flight(self) -> None:
        if self._apply_event is not None:
            self._apply_event.cancel()
        self._apply_event = None
        self._pending_target = None
        self._platform._resume_all_contexts()

    def _apply(self) -> None:
        target = self._pending_target
        self._apply_event = None
        self._pending_target = None
        if target is None:  # pragma: no cover - defensive
            raise HardwareError("DVFS apply fired with no target")
        self._platform._apply_config(target)
        self._platform._resume_all_contexts()
