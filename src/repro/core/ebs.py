"""Event-Based Scheduling (EBS) — the annotation-free point of
comparison from the paper's Sec. 9.

EBS (Zhu et al., HPCA 2015) trades event execution latency against
energy *without* QoS annotations: it measures each event's latency at
runtime and uses the measurement as a proxy for what users will
tolerate.  The paper's critique, verbatim:

    "If an event takes a long time to execute, EBS 'guesses' that it
    is an event for which users could naturally tolerate a long
    latency and, thus, decides to reduce CPU frequency.  However, the
    measured latency is merely an artifact of a particular mobile
    system's capability ... GreenWeb annotations express inherent user
    QoS expectations and thus provide definitive QoS constraints."

This implementation follows that description: per event key it tracks
the observed latency, derives a *tolerated* latency as a multiple of
the long-run observation, and picks the minimum-energy configuration
predicted to stay within it.  The per-key model comes from the same
:class:`~repro.core.components.DvfsProfiler` the GreenWeb runtime uses
(Sec. 6.2's two profiling runs and Eq. 1 fit, one frame per run), so
EBS differs from GreenWeb only in where its target comes from.  The
circularity the paper criticises is real and observable here: running
slower inflates the next measurement, which licenses running slower
still, drifting QoS for latency-tolerant-*looking* events (see
``bench_ablation_ebs.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.browser.frame_tracker import FrameRecord
from repro.core.components import DvfsProfiler
from repro.core.energy_model import PowerTable
from repro.core.governors import KeyedGovernor
from repro.core.predictor import ConfigPredictor
from repro.core.qos import QoSSpec
from repro.core.runtime_state import _KeyState
from repro.errors import RuntimeModelError
from repro.hardware.dvfs import CpuConfig
from repro.hardware.platform import MobilePlatform

#: EBS knows no QoS types; a single-event spec makes every profiling
#: phase last one frame.
_PROFILE_SPEC = QoSSpec.single()


@dataclass
class _EbsKeyState(_KeyState):
    """Per-event-key state: the profiler's phases and fitted models,
    plus EBS's own latency EWMA."""

    observed_latency_us: Optional[float] = None


class EbsGovernor(KeyedGovernor):
    """Annotation-free event-based scheduling.

    Args:
        tolerance_factor: how much slower than the *measured* latency
            an event is allowed to get (EBS's latency slack).
        latency_ewma_alpha: smoothing of the latency measurement.
    """

    def __init__(
        self,
        platform: MobilePlatform,
        tolerance_factor: float = 1.5,
        latency_ewma_alpha: float = 0.4,
        idle_config: Optional[CpuConfig] = None,
    ) -> None:
        if tolerance_factor < 1.0:
            raise RuntimeModelError("tolerance factor must be >= 1")
        if not 0 < latency_ewma_alpha <= 1:
            raise RuntimeModelError("EWMA alpha must be in (0, 1]")
        super().__init__(
            platform, idle_config if idle_config is not None else platform.all_configs()[0]
        )
        self.tolerance_factor = tolerance_factor
        self.latency_ewma_alpha = latency_ewma_alpha
        self.power_table = PowerTable.profile(platform)
        self.predictor = ConfigPredictor(self.power_table)
        self.profiler = DvfsProfiler(platform)
        self._keys: dict[str, _EbsKeyState] = {}
        self.decisions = 0

    # ------------------------------------------------------------------
    def config_for(self, key: str) -> CpuConfig:
        self.decisions += 1
        state = self._key_state(key)
        profiling_config = self.profiler.phase_config(state)
        if profiling_config is not None:
            return profiling_config
        assert state.observed_latency_us is not None
        # The EBS guess: users tolerate tolerance_factor x what they
        # have been getting.  No notion of inherent QoS expectations.
        tolerated_ms = state.observed_latency_us * self.tolerance_factor / 1000.0
        prediction = self.predictor.predict(state.models, max(tolerated_ms, 0.001))
        return prediction.config

    def on_frame_displayed(self, frame: FrameRecord) -> None:
        key = self.first_key(frame.uids)
        if key is not None:
            self._learn(self._key_state(key), float(frame.max_latency_us))

    # ------------------------------------------------------------------
    def _key_state(self, key: str) -> _EbsKeyState:
        if key not in self._keys:
            self._keys[key] = _EbsKeyState()
        return self._keys[key]

    def _learn(self, state: _EbsKeyState, observed_us: float) -> None:
        self.profiler.observe(state, _PROFILE_SPEC, observed_us)
        if state.observed_latency_us is None:
            state.observed_latency_us = observed_us
        else:
            alpha = self.latency_ewma_alpha
            state.observed_latency_us = (
                (1 - alpha) * state.observed_latency_us + alpha * observed_us
            )
