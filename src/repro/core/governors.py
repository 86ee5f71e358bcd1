"""Baseline CPU governors (paper Sec. 7.1).

* :class:`PinnedGovernor` — one static configuration, always.  The
  paper's *Perf* baseline "always runs the system at the peak
  performance, i.e. highest frequency in the big core"; the registry's
  ``perf`` and ``powersave`` (the energy floor, slowest little
  configuration) pin big-max and little-min, and the Sec. 2 trade-off
  sweep pins every configuration in turn.
* :class:`InteractiveGovernor` — a faithful model of Android's
  ``interactive`` cpufreq governor: it "maximizes performance when the
  CPU recovers from the idle state, and then dynamically changes CPU
  performance as CPU utilization varies".  Implemented with the real
  governor's knobs: idle-exit boost to ``hispeed``, ``go_hispeed_load``,
  ``min_sample_time`` hysteresis, ``target_load`` proportional scaling
  on a periodic timer.
* :class:`OndemandGovernor` — the classic step-down governor, an extra
  reference policy used by the ablation benchmarks.

All governors rank the 17 platform configurations by *capacity*
(effective IPC x frequency), which makes "step down one level" and
"pick the lowest config sustaining the load" well-defined across the
little/big cluster boundary.
"""

from __future__ import annotations

from typing import Optional

from repro.browser.engine import BrowserPolicy
from repro.browser.messages import InputMsg
from repro.errors import HardwareError
from repro.hardware.dvfs import CpuConfig
from repro.hardware.platform import MobilePlatform
from repro.sim.clock import ms_to_us
from repro.web.events import Event


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


class InteractiveGovernor(BrowserPolicy):
    """Android's default ``interactive`` governor (QoS-agnostic)."""

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
        self.platform = platform
        self.timer_rate_us = ms_to_us(timer_rate_ms)
        self.go_hispeed_load = go_hispeed_load
        self.target_load = target_load
        self.min_sample_time_us = ms_to_us(min_sample_time_ms)
        self.input_boost = input_boost

        self._configs = sorted(
            platform.all_configs(), key=lambda c: config_capacity(platform, c)
        )
        self._hispeed = self._configs[-1]
        self._floor = self._configs[0]
        self._last_boost_us: Optional[int] = None
        self._last_any_busy_us = 0.0
        self._last_sample_us = 0
        self.timer_fires = 0

    # ------------------------------------------------------------------
    def bind(self, browser) -> None:
        super().bind(browser)
        self.platform.add_busy_observer(self._busy_transition)
        self._last_sample_us = self.platform.kernel.now_us
        _, self._last_any_busy_us = self.platform.utilization_snapshot()
        self.platform.set_config(self._floor)
        self._arm_timer()

    def on_input(self, msg: InputMsg, event: Event) -> None:
        if self.input_boost:
            self._boost()

    # ------------------------------------------------------------------
    def _busy_transition(self, busy_count: int, previous_count: int) -> None:
        # "Maximizes performance when the CPU recovers from idle."
        if previous_count == 0 and busy_count > 0:
            self._boost()

    def _boost(self) -> None:
        self._last_boost_us = self.platform.kernel.now_us
        self.platform.set_config(self._hispeed)

    def _arm_timer(self) -> None:
        self.platform.kernel.schedule_in(self.timer_rate_us, self._timer, label="interactive")

    def _timer(self) -> None:
        self.timer_fires += 1
        now = self.platform.kernel.now_us
        _, any_busy = self.platform.utilization_snapshot()
        window = max(1, now - self._last_sample_us)
        utilization = min(1.0, (any_busy - self._last_any_busy_us) / window)
        self._last_sample_us = now
        self._last_any_busy_us = any_busy

        # Deferrable-timer semantics: the real interactive governor's
        # sampling timer does not fire while the CPU idles, so the
        # frequency parks wherever the last busy period left it —
        # usually hispeed.  This is why the paper observes Interactive
        # "almost always operating at the peak performance" (Sec. 7.3).
        if utilization < 0.02 and self.platform.busy_context_count == 0:
            self._arm_timer()
            return

        boosted = (
            self._last_boost_us is not None
            and now - self._last_boost_us < self.min_sample_time_us
        )
        if not boosted:
            if utilization >= self.go_hispeed_load:
                self.platform.set_config(self._hispeed)
            else:
                current_capacity = config_capacity(self.platform, self.platform.config)
                target_capacity = current_capacity * utilization / self.target_load
                self.platform.set_config(self._lowest_with_capacity(target_capacity))
        self._arm_timer()

    def _lowest_with_capacity(self, capacity: float) -> CpuConfig:
        for config in self._configs:
            if config_capacity(self.platform, config) >= capacity:
                return config
        return self._configs[-1]


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
        self.platform = platform
        self.timer_rate_us = ms_to_us(timer_rate_ms)
        self.up_threshold = up_threshold
        self.down_threshold = down_threshold
        self._configs = sorted(
            platform.all_configs(), key=lambda c: config_capacity(platform, c)
        )
        self._last_any_busy_us = 0.0
        self._last_sample_us = 0

    def bind(self, browser) -> None:
        super().bind(browser)
        self._last_sample_us = self.platform.kernel.now_us
        _, self._last_any_busy_us = self.platform.utilization_snapshot()
        self.platform.set_config(self._configs[0])
        self._arm_timer()

    def _arm_timer(self) -> None:
        self.platform.kernel.schedule_in(self.timer_rate_us, self._timer, label="ondemand")

    def _timer(self) -> None:
        now = self.platform.kernel.now_us
        _, any_busy = self.platform.utilization_snapshot()
        window = max(1, now - self._last_sample_us)
        utilization = min(1.0, (any_busy - self._last_any_busy_us) / window)
        self._last_sample_us = now
        self._last_any_busy_us = any_busy

        current = self.platform.config
        index = next(
            (i for i, c in enumerate(self._configs) if c == current), len(self._configs) - 1
        )
        if utilization >= self.up_threshold:
            self.platform.set_config(self._configs[-1])
        elif utilization <= self.down_threshold and index > 0:
            self.platform.set_config(self._configs[index - 1])
        self._arm_timer()
