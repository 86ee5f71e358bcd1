"""The built-in usage scenarios.

Static (the paper's Sec. 7.1 pair; targets handed out unchanged):

* ``imperceptible`` — battery plentiful, target TI.
* ``usable`` — battery tight, target TU.

Dynamic (the ROADMAP's "scenario axes": environment changes that move
the optimal policy *mid-session*):

* ``thermal(cap_mhz=,trip_ms=,hysteresis_ms=)`` — sustained load trips
  a frequency ceiling on the fastest cluster; cooling lifts it.
* ``battery(start_pct=,drain_pct_per_min=,relax_at_pct=)`` — the QoS
  target relaxes TI -> TU when the battery level crosses a threshold.
* ``netdelay(mean_ms=,burst=,work_ms=)`` — delayed resource arrivals
  inject bursty work into the renderer main thread.
* ``bgload(duty=,period_ms=)`` — a background tab periodically burns
  cycles on its own context (power draw + governor-visible load).

All dynamics are driven off virtual time and the session's forked
``"scenario"`` RNG lane, so runs are deterministic (see
:mod:`repro.scenarios.base` for the contract).
"""

from __future__ import annotations

import math
from typing import Mapping, Optional

from repro.errors import EvaluationError
from repro.hardware.core import WorkUnit
from repro.scenarios.base import Scenario
from repro.scenarios.registry import SCENARIOS
from repro.sim.clock import MIN_SAMPLER_PERIOD_MS
from repro.sim.kernel import QUIET_UNTIL_WOKEN

#: Thermal model sampling period.  A few vsyncs long: coarse enough to
#: stay cheap, fine enough that trip/hysteresis windows of hundreds of
#: milliseconds resolve crisply.
THERMAL_TICK_US = 25_000

#: Default fraction of a sampling window with >= 1 busy context for the
#: window to count as "hot" (override per-spec via ``hot_load=``).
THERMAL_HOT_LOAD = 0.5


class StaticScenario(Scenario):
    """A constant-relaxation scenario (the paper's static pair)."""

    _RELAX = 0.0

    def relax_at(self, now_us: int) -> float:
        return self._RELAX


@SCENARIOS.register(
    "imperceptible",
    description="battery plentiful: every target at TI (paper Sec. 7.1)",
)
class ImperceptibleScenario(StaticScenario):
    _RELAX = 0.0


@SCENARIOS.register(
    "usable",
    description="battery tight: every target at TU (paper Sec. 7.1)",
)
class UsableScenario(StaticScenario):
    _RELAX = 1.0


@SCENARIOS.register(
    "thermal",
    description="sustained load trips an f_max cap on the fastest cluster",
)
class ThermalScenario(Scenario):
    """Thermal throttling: heat accrues while the platform is loaded.

    Every :data:`THERMAL_TICK_US` the scenario diffs the platform's
    utilization integral; a window whose busy fraction reaches
    ``hot_load`` is "hot".  ``trip_ms`` of consecutive hot
    time engages a frequency cap of ``cap_mhz`` on the fastest cluster
    (enforced by the DVFS controller, so over-cap policy requests clamp
    to the fastest allowed OPP); ``hysteresis_ms`` of consecutive cool
    time lifts it.
    """

    def __init__(
        self,
        cap_mhz: int = 1100,
        trip_ms: float = 2000.0,
        hysteresis_ms: float = 1000.0,
        hot_load: float = THERMAL_HOT_LOAD,
    ) -> None:
        super().__init__()
        if cap_mhz <= 0:
            raise EvaluationError(f"thermal cap_mhz must be positive, got {cap_mhz}")
        if trip_ms < 0 or hysteresis_ms < 0:
            raise EvaluationError(
                "thermal trip_ms and hysteresis_ms must be non-negative"
            )
        if not 0.0 <= hot_load <= 1.0:
            raise EvaluationError(
                f"thermal hot_load must be in [0, 1], got {hot_load}"
            )
        self.cap_mhz = int(cap_mhz)
        self.trip_ms = float(trip_ms)
        self.hysteresis_ms = float(hysteresis_ms)
        self.hot_load = float(hot_load)
        self.engaged = False
        #: closed/open [engage_us, disengage_us|None] throttle windows
        self.engagements: list[tuple[int, Optional[int]]] = []
        self._cap_cluster: Optional[str] = None
        self._hot_us = 0
        self._cool_us = 0
        self._last_any_busy = 0.0

    def on_bind(self) -> None:
        platform = self.platform
        self._cap_cluster = platform.config_table.fastest_cluster
        self._last_any_busy = platform.any_busy_us()
        platform.kernel.every(
            THERMAL_TICK_US, self._tick, label="scenario/thermal", closed_form=self
        )

    def _tick(self) -> None:
        # A periodic tick: the sampling window is exactly THERMAL_TICK_US.
        any_busy = self.platform.any_busy_us()
        load = (any_busy - self._last_any_busy) / THERMAL_TICK_US
        self._last_any_busy = any_busy
        hot = load >= self.hot_load
        if self.engaged:
            if hot:
                self._cool_us = 0
            else:
                self._cool_us += THERMAL_TICK_US
                if self._cool_us >= self.hysteresis_ms * 1_000.0:
                    self._set_engaged(False, self.platform.kernel._now_us)
        else:
            if hot:
                self._hot_us += THERMAL_TICK_US
                if self._hot_us >= self.trip_ms * 1_000.0:
                    self._set_engaged(True, self.platform.kernel._now_us)
            else:
                self._hot_us = 0

    def quiet_ticks(self) -> int:
        # Idle with no busy time since the last tick, every window is
        # cool (load 0 < hot_load): disengaged with no hot streak a tick
        # changes nothing; engaged, each tick adds to the cool streak
        # and the one reaching the hysteresis lifts the cap, so only
        # the ticks before that one are quiet.
        platform = self.platform
        if (
            self.hot_load <= 0.0
            or platform._busy
            or platform._any_busy_integral_us != self._last_any_busy
        ):
            return 0
        if not self.engaged:
            return QUIET_UNTIL_WOKEN if self._hot_us == 0 else 0
        hysteresis_us = self.hysteresis_ms * 1_000.0
        if not math.isfinite(hysteresis_us):
            return QUIET_UNTIL_WOKEN
        # The lifting tick is the first n >= 1 with _cool_us + n * tick
        # >= hysteresis_us; an int reaches a float exactly when it
        # reaches its ceiling, so integer division finds n.
        shortfall_us = math.ceil(hysteresis_us) - self._cool_us
        return max(1, -(-shortfall_us // THERMAL_TICK_US)) - 1

    def skip_ticks(self, ticks: int) -> None:
        if self.engaged:
            self._cool_us += ticks * THERMAL_TICK_US

    def _set_engaged(self, engaged: bool, now_us: int) -> None:
        self.engaged = engaged
        self._hot_us = 0
        self._cool_us = 0
        if engaged:
            self.engagements.append((now_us, None))
        else:
            start, _open = self.engagements[-1]
            self.engagements[-1] = (start, now_us)
        if self.platform.trace is not None:
            self.platform.trace.emit(
                now_us,
                "scenario",
                "thermal_cap",
                cluster=self._cap_cluster,
                cap_mhz=self.cap_mhz,
                engaged=engaged,
            )
        self.platform.set_frequency_cap(
            self._cap_cluster, self.cap_mhz if engaged else None
        )

    def caps_at(self, now_us: int) -> Optional[Mapping[str, int]]:
        if self.engaged and self._cap_cluster is not None:
            return {self._cap_cluster: self.cap_mhz}
        return None


@SCENARIOS.register(
    "battery",
    description="target relaxes TI -> TU when the battery runs low",
)
class BatteryScenario(Scenario):
    """Battery-aware QoS relaxation: a pure function of virtual time.

    The battery starts at ``start_pct`` and drains linearly at
    ``drain_pct_per_min``; once the level reaches ``relax_at_pct`` the
    operative target jumps from TI to TU (the paper's motivation for
    the *usable* scenario, made dynamic).
    """

    def __init__(
        self,
        start_pct: float = 100.0,
        drain_pct_per_min: float = 1.0,
        relax_at_pct: float = 20.0,
    ) -> None:
        super().__init__()
        if not 0.0 < start_pct <= 100.0:
            raise EvaluationError(
                f"battery start_pct must be in (0, 100], got {start_pct}"
            )
        if drain_pct_per_min <= 0:
            raise EvaluationError(
                f"battery drain_pct_per_min must be positive, got {drain_pct_per_min}"
            )
        if not 0.0 <= relax_at_pct <= 100.0:
            raise EvaluationError(
                f"battery relax_at_pct must be in [0, 100], got {relax_at_pct}"
            )
        self.start_pct = float(start_pct)
        self.drain_pct_per_min = float(drain_pct_per_min)
        self.relax_at_pct = float(relax_at_pct)
        if self.relax_at_pct >= self.start_pct:
            self.relax_after_us = 0
        else:
            self.relax_after_us = int(
                round(
                    (self.start_pct - self.relax_at_pct)
                    / self.drain_pct_per_min
                    * 60e6
                )
            )

    def level_pct(self, now_us: int) -> float:
        """The battery level at virtual time ``now_us``."""
        return max(
            0.0, self.start_pct - self.drain_pct_per_min * now_us / 60e6
        )

    def relax_at(self, now_us: int) -> float:
        return 1.0 if now_us >= self.relax_after_us else 0.0


@SCENARIOS.register(
    "netdelay",
    description="bursty delayed-resource work lands on the renderer thread",
)
class NetDelayScenario(Scenario):
    """Network-delayed resource arrivals.

    Arrivals follow an exponential inter-arrival distribution with mean
    ``mean_ms`` (drawn from the scenario RNG lane); each arrival queues
    ``burst`` chunks of ``work_ms`` nominal work on the renderer main
    thread, head-of-line blocking whatever frames follow — exactly the
    contention a slow network inflicts on a real page.
    """

    def __init__(
        self, mean_ms: float = 400.0, burst: int = 3, work_ms: float = 2.0
    ) -> None:
        super().__init__()
        if mean_ms <= 0:
            raise EvaluationError(f"netdelay mean_ms must be positive, got {mean_ms}")
        if burst < 1:
            raise EvaluationError(f"netdelay burst must be >= 1, got {burst}")
        if work_ms <= 0:
            raise EvaluationError(f"netdelay work_ms must be positive, got {work_ms}")
        self.mean_ms = float(mean_ms)
        self.burst = int(burst)
        self.work_ms = float(work_ms)
        self.arrivals = 0
        self._extra_work_us = 0.0
        self._target_context = None
        self._chunk: Optional[WorkUnit] = None
        self._stream = None

    def on_bind(self) -> None:
        platform = self.platform
        # Size one chunk in cycles so it runs for work_ms on the fastest
        # configuration (longer when throttled/parked — intentionally).
        spec = platform.cluster(platform.config_table.fastest_cluster).spec
        self._chunk = WorkUnit(
            self.work_ms * 1_000.0 * spec.ipc_factor * spec.opps.max.freq_mhz
        )
        self._stream = self.rng.stream("netdelay/arrivals")
        self._schedule_next()

    def attach(self, browser) -> None:
        self._target_context = browser.main

    def _context(self):
        # Hand-assembled stacks may never attach a browser; fall back to
        # a dedicated context so the scenario still injects load.
        if self._target_context is None:
            self._target_context = self.platform.create_context("scenario-net")
        return self._target_context

    def _schedule_next(self) -> None:
        delay_us = max(1, int(round(self._stream.exponential(self.mean_ms * 1_000.0))))
        self.platform.kernel.schedule_in(
            delay_us, self._arrive, label="scenario/netdelay"
        )

    def _arrive(self) -> None:
        context = self._context()
        for _ in range(self.burst):
            context.submit(self._chunk, label="netdelay")
        self.arrivals += 1
        self._extra_work_us += self.burst * self.work_ms * 1_000.0
        if self.platform.trace is not None:
            self.platform.trace.emit(
                self.platform.kernel.now_us,
                "scenario",
                "net_burst",
                burst=self.burst,
                work_ms=self.work_ms,
            )
        self._schedule_next()

    def extra_work_done_us(self) -> float:
        return self._extra_work_us


@SCENARIOS.register(
    "bgload",
    description="a background tab burns a duty cycle on its own context",
    minimums={"period_ms": MIN_SAMPLER_PERIOD_MS},
)
class BgLoadScenario(Scenario):
    """Background contention: every ``period_ms`` a chunk sized to busy
    a little core for ``duty`` of the period is submitted to a dedicated
    context.  The work never blocks the renderer directly, but it draws
    power and inflates the utilization the ``interactive`` governor
    samples — the classic background-tab tax.
    """

    def __init__(self, duty: float = 0.25, period_ms: float = 250.0) -> None:
        super().__init__()
        if not 0.0 < duty <= 1.0:
            raise EvaluationError(f"bgload duty must be in (0, 1], got {duty}")
        if not period_ms >= MIN_SAMPLER_PERIOD_MS:
            raise EvaluationError(
                f"bgload period_ms must be >= {MIN_SAMPLER_PERIOD_MS} ms, got {period_ms}"
            )
        self.duty = float(duty)
        self.period_ms = float(period_ms)
        self.periods = 0
        self._extra_work_us = 0.0
        self._context = None
        self._chunk: Optional[WorkUnit] = None

    def on_bind(self) -> None:
        platform = self.platform
        self._context = platform.create_context("scenario-bg")
        # Background work is sized against the *littlest* cluster: a
        # duty of 0.25 busies a little core flat-out for a quarter of
        # each period (longer per chunk when parked even slower).
        spec = platform.cluster(platform.config_table.slowest_cluster).spec
        busy_us = self.duty * self.period_ms * 1_000.0
        self._chunk = WorkUnit(busy_us * spec.ipc_factor * spec.opps.max.freq_mhz)
        period_us = int(round(self.period_ms * 1_000.0))
        platform.kernel.every(period_us, self._tick, label="scenario/bgload")

    def _tick(self) -> None:
        self._context.submit(self._chunk, label="bgload")
        self.periods += 1
        self._extra_work_us += self.duty * self.period_ms * 1_000.0

    def extra_work_done_us(self) -> float:
        return self._extra_work_us
