"""Platform assembly: clusters + contexts + power + energy + DVFS.

:class:`MobilePlatform` is the hardware facade the rest of the system
talks to.  It owns the simulation kernel, the two clusters, the set of
execution contexts (threads), the power model, the energy meter, and
the DVFS controller, and it keeps utilization statistics that the
Android-style ``interactive`` governor samples.

Only one cluster is active at a time (cluster migration, as on the
Exynos 5410 in the paper's setup); the inactive cluster is power-gated.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import HardwareError
from repro.hardware.core import (
    Cluster,
    ClusterSpec,
    WorkUnit,
    big_cluster_spec,
    little_cluster_spec,
)
from repro.hardware.dvfs import CpuConfig, DvfsController, config_table
from repro.hardware.energy import EnergyMeter
from repro.hardware.execution import ExecutionContext
from repro.hardware.power import PowerBreakdown, PowerModel
from repro.sim.kernel import Kernel
from repro.sim.tracing import HOOKS, SessionObserver, TraceLog


class MobilePlatform:
    """A big.LITTLE mobile SoC with DVFS, power gating, and energy metering."""

    def __init__(
        self,
        kernel: Optional[Kernel] = None,
        cluster_specs: Optional[list[ClusterSpec]] = None,
        power_model: Optional[PowerModel] = None,
        trace: Optional[TraceLog] = None,
        initial_config: Optional[CpuConfig] = None,
        freq_switch_overhead_us: Optional[int] = None,
        migration_overhead_us: Optional[int] = None,
    ) -> None:
        self.kernel = kernel if kernel is not None else Kernel()
        #: the retained trace, or None (the default: no records built)
        self.trace = trace
        #: hook name -> the attached observers overriding it, in attach
        #: order; only attach() writes these lists, and none is rebound
        self._hooks: dict[str, list[SessionObserver]] = {hook: [] for hook in HOOKS}
        if trace is not None:
            self.attach(trace)
        self.power_model = power_model if power_model is not None else PowerModel()

        specs = cluster_specs if cluster_specs is not None else [
            big_cluster_spec(),
            little_cluster_spec(),
        ]
        if not specs:
            raise HardwareError("platform needs at least one cluster")
        self._clusters: dict[str, Cluster] = {}
        for spec in specs:
            if spec.name in self._clusters:
                raise HardwareError(f"duplicate cluster name {spec.name!r}")
            self._clusters[spec.name] = Cluster(spec, powered=False)

        if initial_config is None:
            first = specs[0]
            initial_config = CpuConfig(first.name, first.opps.max.freq_mhz)
        if initial_config.cluster not in self._clusters:
            raise HardwareError(f"unknown cluster {initial_config.cluster!r}")

        self.config_table = config_table(tuple(specs))
        #: config -> platform power by busy-context count, each entry
        #: filled on first use; only the active cluster is powered, so
        #: (config, busy count) fully keys the instantaneous power.
        self._row_length = max(c.spec.core_count for c in self._clusters.values()) + 1
        self._power_rows = {c: [None] * self._row_length for c in self.config_table.configs}
        self._active_name = initial_config.cluster
        active = self._clusters[self._active_name]
        active.power_on()
        active.set_frequency(initial_config.freq_mhz)
        self._active_cluster = active
        #: the applied configuration (an interned table member) and its
        #: power row; only __init__ and _apply_config write them
        self._config = self.config_table.interned[initial_config]
        self._power_row = self._power_rows[self._config]

        #: cluster name -> f_max ceiling (MHz) currently imposed by the
        #: environment (thermal throttling); empty = uncapped.  The
        #: DVFS controller clamps every request against this.
        self._freq_caps: dict[str, int] = {}

        self._contexts: list[ExecutionContext] = []
        self._busy: set[ExecutionContext] = set()
        #: open DVFS switches pausing the platform; the one pause state:
        #: no context starts or runs a task while it is non-zero
        self._paused_depth = 0
        #: opt-in, with a trace: emit a "task/span" record for every
        #: completed task (start, duration, context, label) — the
        #: per-thread timeline view for chrome-trace exports.  Off by
        #: default to keep traced runs lean.
        self.record_task_spans = False

        # Utilization accounting (for the interactive governor).
        self._util_last_us = self.kernel.now_us
        self._any_busy_integral_us = 0.0  # wall time with >=1 busy context

        self.meter = EnergyMeter(start_us=self.kernel.now_us)
        from repro.hardware.dvfs import (
            FREQ_SWITCH_OVERHEAD_US,
            MIGRATION_OVERHEAD_US,
        )

        self.dvfs = DvfsController(
            self,
            freq_switch_overhead_us=(
                freq_switch_overhead_us
                if freq_switch_overhead_us is not None
                else FREQ_SWITCH_OVERHEAD_US
            ),
            migration_overhead_us=(
                migration_overhead_us
                if migration_overhead_us is not None
                else MIGRATION_OVERHEAD_US
            ),
        )
        self.meter.on_power_change(self.kernel.now_us, self.current_power())

    # ------------------------------------------------------------------
    # Topology and configuration
    # ------------------------------------------------------------------
    @property
    def cluster_names(self) -> list[str]:
        return list(self._clusters)

    def cluster(self, name: str) -> Cluster:
        """Look up a cluster by name."""
        try:
            return self._clusters[name]
        except KeyError:
            raise HardwareError(
                f"unknown cluster {name!r}; have {list(self._clusters)}"
            ) from None

    @property
    def active_cluster(self) -> Cluster:
        return self._active_cluster

    @property
    def config(self) -> CpuConfig:
        """The current <cluster, frequency> execution configuration."""
        return self._config

    def all_configs(self) -> list[CpuConfig]:
        """Every <cluster, frequency> combination the platform offers,
        ordered little-to-big then slow-to-fast (17 on the default
        platform: 6 little + 11 big)."""
        return list(self.config_table.configs)

    def set_config(self, config: CpuConfig) -> bool:
        """Request a configuration change through the DVFS controller."""
        return self.dvfs.request(config)

    # ------------------------------------------------------------------
    # Frequency caps (environment hook: thermal throttling)
    # ------------------------------------------------------------------
    def frequency_cap(self, cluster: str) -> Optional[int]:
        """The f_max ceiling (MHz) in force on ``cluster``, if any."""
        return self._freq_caps.get(cluster)

    def set_frequency_cap(self, cluster: str, cap_mhz: Optional[int]) -> None:
        """Impose (or with ``None`` lift) an f_max ceiling on a cluster.

        Every subsequent DVFS request for the cluster clamps to its
        fastest OPP at or below the cap; if the *current* (or in-flight)
        configuration already violates the new cap, a down-switch is
        initiated immediately with the normal switching overhead.
        Lifting a cap changes nothing by itself — the next policy
        request is free to climb again.
        """
        self.cluster(cluster)  # validate the name
        if cap_mhz is None:
            self._freq_caps.pop(cluster, None)
        else:
            if cap_mhz <= 0:
                raise HardwareError(
                    f"frequency cap must be positive, got {cap_mhz}"
                )
            self._freq_caps[cluster] = int(cap_mhz)
        self.dvfs.enforce_caps()

    def _apply_config(self, config: CpuConfig) -> None:
        """Immediately apply a configuration (an interned table member;
        called by the DVFS controller after the switching overhead)."""
        if config.cluster != self._active_name:
            self._active_cluster.power_off()
            self._active_name = config.cluster
            self._active_cluster = self._clusters[config.cluster]
            self._active_cluster.power_on()
        self._active_cluster.set_frequency(config.freq_mhz)
        self._config = config
        row = self._power_row = self._power_rows[config]
        now = self.kernel._now_us
        for observer in self._hooks["config_applied"]:
            observer.config_applied(now, config)
        power = row[len(self._busy)]
        if power is None:
            power = self.current_power()
        self.meter.on_power_change(now, power)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def create_context(self, name: str) -> ExecutionContext:
        """Create a new execution context (software thread slot)."""
        if len(self._contexts) >= max(c.spec.core_count for c in self._clusters.values()):
            raise HardwareError("more contexts than cores in a cluster")
        context = ExecutionContext(self, name)
        self._contexts.append(context)
        return context

    @property
    def contexts(self) -> list[ExecutionContext]:
        return list(self._contexts)

    def duration_us(self, work: WorkUnit) -> float:
        """Time for ``work`` on the active cluster at its current OPP."""
        active = self._active_cluster
        return active.spec.duration_us(work, active.freq_mhz)

    def _pause_all_contexts(self) -> None:
        """Open a switch: on the first pause, freeze every running task
        (the ones with a completion event).  Only busy contexts hold a
        task, so idle ones cost nothing; freezing has no side effect
        another context sees, so the set's order does not matter."""
        self._paused_depth += 1
        if self._paused_depth == 1:
            for context in self._busy:
                task = context._current
                if task is not None and task._completion_event is not None:
                    context._freeze(task)

    def _resume_all_contexts(self) -> None:
        """Close a switch: on the last resume, in creation order, re-time
        every frozen task at the applied configuration and start the
        next task of every context whose work queued while paused."""
        if self._paused_depth <= 0:
            raise HardwareError("resume without matching pause")
        self._paused_depth -= 1
        if self._paused_depth == 0:
            for context in self._contexts:
                task = context._current
                if task is None:
                    if context._queue:
                        context._start(context._queue.popleft())
                        # Starting a task can trigger observers (idle-exit
                        # boost) that open a NEW switch and re-pause the
                        # platform; stop resuming immediately in that case
                        # — the new switch's apply resumes everyone.
                        if self._paused_depth:
                            break
                elif task._completion_event is None:
                    context._start(task)

    # ------------------------------------------------------------------
    # Session observers and busy/power accounting
    # ------------------------------------------------------------------
    def attach(self, observer: SessionObserver) -> None:
        """Observe this session: ``observer`` joins the list of each
        hook its class overrides, after the observers already there."""
        if not isinstance(observer, SessionObserver):
            raise HardwareError(f"{observer!r} is not a SessionObserver")
        cls = type(observer)
        for hook, observers in self._hooks.items():
            if getattr(cls, hook) is not getattr(SessionObserver, hook):
                observers.append(observer)

    # The two transitions inline any_busy_us() and current_power(): one
    # call reaches the meter per busy-count change.
    def _context_became_busy(self, context: ExecutionContext) -> None:
        """``context`` (not yet in the busy set; the start path tests
        membership before calling) starts running a task."""
        busy = self._busy
        previous = len(busy)
        now = self.kernel._now_us
        if previous and now > self._util_last_us:
            self._any_busy_integral_us += now - self._util_last_us
        self._util_last_us = now
        busy.add(context)
        power = self._power_row[previous + 1]
        if power is None:
            power = self.current_power()
        self.meter.on_power_change(now, power)
        for observer in self._hooks["busy_changed"]:
            observer.busy_changed(now, previous + 1, previous)

    def _context_became_idle(self, context: ExecutionContext) -> None:
        """``context`` (in the busy set) finished its last task."""
        busy = self._busy
        previous = len(busy)
        now = self.kernel._now_us
        if now > self._util_last_us:
            self._any_busy_integral_us += now - self._util_last_us
        self._util_last_us = now
        busy.discard(context)
        power = self._power_row[previous - 1]
        if power is None:
            power = self.current_power()
        self.meter.on_power_change(now, power)
        for observer in self._hooks["busy_changed"]:
            observer.busy_changed(now, previous - 1, previous)

    @property
    def busy_context_count(self) -> int:
        return len(self._busy)

    def current_power(self) -> PowerBreakdown:
        """Instantaneous platform power for the current state.

        Memoized: power depends only on the applied configuration and
        the busy count, because only the active cluster is powered.
        Each applied configuration owns one row indexed by busy count
        (at most 17 x 5 entries on the default platform), picked once
        per apply, so the busy/idle churn costs one list index.
        """
        busy_count = len(self._busy)
        cached = self._power_row[busy_count]
        if cached is None:
            rows = []
            for name, cluster in self._clusters.items():
                busy = busy_count if name == self._active_name else 0
                rows.append((cluster.spec, cluster.opp, busy, cluster.powered))
            cached = self._power_row[busy_count] = self.power_model.breakdown(rows)
        return cached

    def any_busy_us(self) -> float:
        """Bring the utilization integral up to now and return the
        cumulative wall time with >= 1 busy context; samplers diff two
        readings to get a window's load."""
        now = self.kernel._now_us
        if self._busy and now > self._util_last_us:
            self._any_busy_integral_us += now - self._util_last_us
        self._util_last_us = now
        return self._any_busy_integral_us

    # ------------------------------------------------------------------
    # Run helpers
    # ------------------------------------------------------------------
    def run_for(self, duration_us: int) -> None:
        """Advance the simulation and keep the meter integrated."""
        self.kernel.run_for(duration_us)
        self.meter.finalize(self.kernel.now_us)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MobilePlatform {self.config} busy={len(self._busy)}>"


def odroid_xu_e(
    kernel: Optional[Kernel] = None,
    trace: Optional[TraceLog] = None,
    initial_config: Optional[CpuConfig] = None,
    fast_voltage_regulators: bool = False,
) -> MobilePlatform:
    """Build a platform shaped like the paper's ODroid XU+E testbed
    (Exynos 5410: 4x Cortex-A15 big + 4x Cortex-A7 little).

    Args:
        fast_voltage_regulators: model on-chip integrated voltage
            regulators (IVRs): 5 us frequency switches instead of
            100 us.  The paper's Fig. 12 discussion argues fast VRs
            "increasingly prevalent in server processors" would also
            benefit mobile CPUs; this variant lets the ablation
            benchmarks test that claim.
    """
    return MobilePlatform(
        kernel=kernel,
        cluster_specs=[big_cluster_spec(), little_cluster_spec()],
        trace=trace,
        initial_config=initial_config,
        freq_switch_overhead_us=5 if fast_voltage_regulators else None,
    )
