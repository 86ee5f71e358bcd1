"""Baseline CPU governors (paper Sec. 7.1).

* :class:`PinnedGovernor` — one static configuration, always.  The
  paper's *Perf* baseline "always runs the system at the peak
  performance, i.e. highest frequency in the big core"; the registry's
  ``perf`` and ``powersave`` (the energy floor, slowest little
  configuration) pin big-max and little-min, and the Sec. 2 trade-off
  sweep pins every configuration in turn.
* :class:`KeyedGovernor` — the per-event base: each input runs at its
  event key's configuration and the platform parks on an idle
  configuration once no input needs it.  EBS and the oracle's replay
  policy differ only in :meth:`KeyedGovernor.config_for`.
* :class:`InteractiveGovernor` — a faithful model of Android's
  ``interactive`` cpufreq governor: it "maximizes performance when the
  CPU recovers from the idle state, and then dynamically changes CPU
  performance as CPU utilization varies".  Implemented with the real
  governor's knobs: idle-exit boost to ``hispeed``, ``go_hispeed_load``,
  ``min_sample_time`` hysteresis, ``target_load`` proportional scaling
  on a periodic timer.
* :class:`OndemandGovernor` — the classic step-down governor, an extra
  reference policy used by the ablation benchmarks.

The sampling governors step through the platform's capacity ladder
(its 17 configurations ranked by effective IPC x frequency), which
makes "step down one level" and "pick the lowest config sustaining the
load" well-defined across the little/big cluster boundary.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Optional

from repro.browser.engine import BrowserPolicy, event_key
from repro.browser.frame_tracker import InputRecord
from repro.browser.messages import InputMsg
from repro.errors import HardwareError
from repro.hardware.dvfs import CpuConfig
from repro.hardware.platform import MobilePlatform
from repro.sim.clock import MIN_SAMPLER_PERIOD_MS, ms_to_us
from repro.sim.kernel import QUIET_UNTIL_WOKEN
from repro.sim.tracing import SessionObserver
from repro.web.events import Event


def _check_timer_rate(timer_rate_ms: float) -> None:
    """Reject a sampling period below :data:`MIN_SAMPLER_PERIOD_MS`."""
    if not timer_rate_ms >= MIN_SAMPLER_PERIOD_MS:
        raise HardwareError(
            f"governor timer_rate_ms must be >= {MIN_SAMPLER_PERIOD_MS} ms, "
            f"got {timer_rate_ms}"
        )


def config_capacity(platform: MobilePlatform, config: CpuConfig) -> float:
    """Effective performance of a configuration (IPC x MHz)."""
    spec = platform.cluster(config.cluster).spec
    return spec.ipc_factor * config.freq_mhz


class PinnedGovernor(BrowserPolicy):
    """One static configuration, applied at bind and never changed."""

    def __init__(self, platform: MobilePlatform, config: CpuConfig) -> None:
        self.platform = platform
        self.config = config

    def bind(self, browser) -> None:
        super().bind(browser)
        self.platform.set_config(self.config)


class KeyedGovernor(BrowserPolicy):
    """Each input runs at its event key's configuration.

    The platform parks on ``idle_config`` at bind and again as soon as
    the last demanding input completes.  A frame re-applies the
    configuration of its first input with a known key.  Subclasses
    implement only :meth:`config_for`.
    """

    def __init__(self, platform: MobilePlatform, idle_config: CpuConfig) -> None:
        self.platform = platform
        self.idle_config = idle_config
        self._uid_keys: dict[int, str] = {}
        self._demanding: set[int] = set()

    def config_for(self, key: str) -> CpuConfig:
        """The configuration an input of event ``key`` runs at."""
        raise NotImplementedError

    def first_key(self, uids: Iterable[int]) -> Optional[str]:
        """The event key of the first of ``uids`` this policy has seen."""
        for uid in uids:
            key = self._uid_keys.get(uid)
            if key is not None:
                return key
        return None

    def bind(self, browser) -> None:
        super().bind(browser)
        self.platform.set_config(self.idle_config)

    def on_input(self, msg: InputMsg, event: Event) -> None:
        key = event_key(msg.target_key, event.type)
        self._uid_keys[msg.uid] = key
        self._demanding.add(msg.uid)
        self.platform.set_config(self.config_for(key))

    def on_frame_scheduled(self, vsync_us: int, msgs: list[InputMsg]) -> None:
        key = self.first_key(msg.uid for msg in msgs)
        if key is not None:
            self.platform.set_config(self.config_for(key))

    def on_input_complete(self, record: InputRecord) -> None:
        self._demanding.discard(record.uid)
        if not self._demanding:
            self.platform.set_config(self.idle_config)


class InteractiveGovernor(BrowserPolicy, SessionObserver):
    """Android's default ``interactive`` governor (QoS-agnostic).  It
    observes the session's busy transitions for its idle-exit boost."""

    def __init__(
        self,
        platform: MobilePlatform,
        timer_rate_ms: float = 20.0,
        go_hispeed_load: float = 0.85,
        target_load: float = 0.90,
        min_sample_time_ms: float = 80.0,
        input_boost: bool = True,
    ) -> None:
        if not 0 < target_load <= 1 or not 0 < go_hispeed_load <= 1:
            raise HardwareError("governor loads must be in (0, 1]")
        _check_timer_rate(timer_rate_ms)
        self.platform = platform
        self.timer_rate_us = ms_to_us(timer_rate_ms)
        self.go_hispeed_load = go_hispeed_load
        self.target_load = target_load
        self.min_sample_time_us = ms_to_us(min_sample_time_ms)
        self.input_boost = input_boost

        self._table = platform.config_table
        self._hispeed = self._table.ladder[-1]
        self._floor = self._table.ladder[0]
        self._last_boost_us: Optional[int] = None
        self._last_any_busy_us = 0.0
        self.timer_fires = 0

    # ------------------------------------------------------------------
    def bind(self, browser) -> None:
        super().bind(browser)
        self.platform.attach(self)
        self._last_any_busy_us = self.platform.any_busy_us()
        self.platform.set_config(self._floor)
        self.platform.kernel.every(
            self.timer_rate_us, self._timer, label="interactive", closed_form=self
        )

    def on_input(self, msg: InputMsg, event: Event) -> None:
        if self.input_boost:
            self._boost()

    # ------------------------------------------------------------------
    def busy_changed(self, time_us: int, busy_count: int, previous_count: int) -> None:
        # "Maximizes performance when the CPU recovers from idle."
        if previous_count == 0 and busy_count > 0:
            self._boost()

    def _boost(self) -> None:
        platform = self.platform
        self._last_boost_us = platform.kernel._now_us
        platform.set_config(self._hispeed)

    def _timer(self) -> None:
        # A periodic tick: the sampling window is exactly timer_rate_us.
        self.timer_fires += 1
        platform = self.platform
        any_busy = platform.any_busy_us()
        utilization = min(1.0, (any_busy - self._last_any_busy_us) / self.timer_rate_us)
        self._last_any_busy_us = any_busy

        # Deferrable-timer semantics: the real interactive governor's
        # sampling timer does not fire while the CPU idles, so the
        # frequency parks wherever the last busy period left it —
        # usually hispeed.  This is why the paper observes Interactive
        # "almost always operating at the peak performance" (Sec. 7.3).
        if utilization < 0.02 and not platform._busy:
            return

        boosted = (
            self._last_boost_us is not None
            and platform.kernel._now_us - self._last_boost_us < self.min_sample_time_us
        )
        if not boosted:
            if utilization >= self.go_hispeed_load:
                platform.set_config(self._hispeed)
            else:
                current_capacity = self._table.capacities[self._table.rank[platform._config]]
                target_capacity = current_capacity * utilization / self.target_load
                platform.set_config(self._lowest_with_capacity(target_capacity))

    def quiet_ticks(self) -> int:
        # Idle with no busy time since the last tick: every tick reads a
        # zero load and returns at the deferrable-timer test.
        platform = self.platform
        if platform._busy or platform._any_busy_integral_us != self._last_any_busy_us:
            return 0
        return QUIET_UNTIL_WOKEN

    def skip_ticks(self, ticks: int) -> None:
        self.timer_fires += ticks

    def _lowest_with_capacity(self, capacity: float) -> CpuConfig:
        ladder = self._table.ladder
        return ladder[min(bisect_left(self._table.capacities, capacity), len(ladder) - 1)]


class OndemandGovernor(BrowserPolicy):
    """The classic ``ondemand`` governor: jump to max above the up
    threshold, step down one level when the load is low."""

    def __init__(
        self,
        platform: MobilePlatform,
        timer_rate_ms: float = 20.0,
        up_threshold: float = 0.80,
        down_threshold: float = 0.30,
    ) -> None:
        if not 0 < down_threshold < up_threshold <= 1:
            raise HardwareError("need 0 < down_threshold < up_threshold <= 1")
        _check_timer_rate(timer_rate_ms)
        self.platform = platform
        self.timer_rate_us = ms_to_us(timer_rate_ms)
        self.up_threshold = up_threshold
        self.down_threshold = down_threshold
        self._table = platform.config_table
        self._floor = self._table.ladder[0]
        self._last_any_busy_us = 0.0

    def bind(self, browser) -> None:
        super().bind(browser)
        self._last_any_busy_us = self.platform.any_busy_us()
        self.platform.set_config(self._floor)
        self.platform.kernel.every(
            self.timer_rate_us, self._timer, label="ondemand", closed_form=self
        )

    def _timer(self) -> None:
        # A periodic tick: the sampling window is exactly timer_rate_us.
        # No clamp to 1: up_threshold <= 1, so a higher reading compares
        # as 1.0 would against both thresholds.
        platform = self.platform
        any_busy = platform.any_busy_us()
        utilization = (any_busy - self._last_any_busy_us) / self.timer_rate_us
        self._last_any_busy_us = any_busy

        if utilization >= self.up_threshold:
            platform.set_config(self._table.ladder[-1])
        elif utilization <= self.down_threshold:
            index = self._table.rank[platform._config]
            if index > 0:
                platform.set_config(self._table.ladder[index - 1])

    def quiet_ticks(self) -> int:
        # Idle at the ladder floor with no busy time since the last
        # tick: every tick reads a zero load and has no level to step
        # down to.
        platform = self.platform
        if (
            platform._config is not self._floor
            or platform._busy
            or platform._any_busy_integral_us != self._last_any_busy_us
        ):
            return 0
        return QUIET_UNTIL_WOKEN

    def skip_ticks(self, ticks: int) -> None:
        pass
