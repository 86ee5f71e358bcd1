"""The GreenWeb runtime (paper Sec. 6).

Operates per frame: for every frame associated with an annotated event,
predict the minimum-energy ACMP configuration that meets the event's
QoS target, actuate it, and learn from the measured frame latency.

Lifecycle of one annotated event key (an (element, event-type) pair):

1. **Profiling** (Sec. 6.2): the first frame runs at the big cluster's
   maximum frequency, the second at its minimum.  The two (f, T)
   samples solve Eq. 1 for the big cluster; the little-cluster model is
   derived through the statically profiled IPC ratio.
2. **Stable**: each frame, sweep all configurations and pick the
   cheapest that meets the target (:class:`ConfigPredictor`), adjusted
   by a reactive *boost*: a QoS violation steps the configuration up
   one level (next frequency, or little-to-big migration); a clear
   over-prediction steps it back down.
3. **Recalibration**: more than ``recalibration_threshold`` consecutive
   mispredictions (relative error above ``misprediction_tolerance``)
   sends the key back to profiling.

Energy conservation: when no input demands performance — every $single$
event has its response frame and no continuous sequence is live — the
runtime drops to the idle configuration, so "post-frame" work (timers,
GC-like tasks) executes in low-power mode (Sec. 3.2).

Structurally the runtime is a thin conductor over four interfaced
components (see :mod:`repro.core.components`): a :class:`DvfsProfiler`
(profiling phases + Eq. 1 fits), a
:class:`~repro.core.predictor.ConfigPredictor` (the config sweep), a
:class:`FeedbackController` (boost/EWMA/recalibration), and an
:class:`IdleManager` (grace-period idle drops).  It calls them
directly and re-exposes none of their knobs: ``runtime.profiler``,
``runtime.feedback_controller`` and ``runtime.idle_manager`` are the
one place each knob is stored.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.browser.engine import BrowserPolicy, event_key
from repro.browser.frame_tracker import FrameRecord, InputRecord
from repro.browser.messages import InputMsg
from repro.core.annotations import AnnotationRegistry
from repro.core.components import DvfsProfiler, FeedbackController, IdleManager
from repro.core.energy_model import PowerTable
from repro.core.predictor import ConfigPredictor
from repro.core.qos import QoSSpec, QoSType
from repro.core.runtime_state import RuntimeStats, _KeyState, _Phase
from repro.errors import RuntimeModelError
from repro.hardware.dvfs import CpuConfig
from repro.hardware.platform import MobilePlatform
from repro.web.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenarios.base import Scenario

__all__ = [
    "GreenWebRuntime",
    "RuntimeStats",
    "_KeyState",
    "_Phase",
]


class GreenWebRuntime(BrowserPolicy):
    """The QoS-aware energy policy driven by GreenWeb annotations."""

    def __init__(
        self,
        platform: MobilePlatform,
        registry: AnnotationRegistry,
        # The live bound scenario: every target is read through its
        # operative_target_ms, so the runtime follows time-varying
        # scenario dynamics.
        scenario: "Scenario",
        fallback_spec: Optional[QoSSpec] = None,
        idle_config: Optional[CpuConfig] = None,
        misprediction_tolerance: float = 0.30,
        recalibration_threshold: int = 3,
        ewma_model_update: bool = True,
        ewma_alpha: float = 0.30,
        profile_both_clusters: bool = False,
        idle_grace_ms: float = 150.0,
        target_headroom: float = 1.0,
        surge_aware: bool = False,
        surge_percentile: float = 0.9,
        surge_window: int = 12,
    ) -> None:
        if not 0 < target_headroom <= 1.0:
            raise RuntimeModelError("target headroom must be in (0, 1]")
        self.platform = platform
        self.registry = registry
        self.scenario = scenario
        # Unannotated user inputs get a conservative safe spec: QoS is
        # favoured over energy, mirroring AutoGreen's conservatism.
        self.fallback_spec = fallback_spec if fallback_spec is not None else QoSSpec.single()
        # Predict against headroom * target: <1.0 buys safety margin
        # against frame-complexity surges at an energy cost — the
        # simple alternative to the paper's Sec. 8 suggestion of
        # profiling-guided prediction for fluctuating frames.
        self.target_headroom = target_headroom

        self.power_table = PowerTable.profile(platform)
        self.predictor = ConfigPredictor(self.power_table)
        self._configs = platform.all_configs()  # performance order
        self._config_index = {c: i for i, c in enumerate(self._configs)}
        self.stats = RuntimeStats()

        self.profiler = DvfsProfiler(platform, profile_both_clusters)
        self.feedback_controller = FeedbackController(
            self.profiler,
            self.stats,
            misprediction_tolerance=misprediction_tolerance,
            recalibration_threshold=recalibration_threshold,
            ewma_model_update=ewma_model_update,
            ewma_alpha=ewma_alpha,
            surge_aware=surge_aware,
            surge_percentile=surge_percentile,
            surge_window=surge_window,
        )
        self.idle_manager = IdleManager(
            platform,
            idle_config if idle_config is not None else self._configs[0],
            idle_grace_ms,
            has_demand=lambda: bool(self._demanding),
            stats=self.stats,
        )

        self._keys: dict[str, _KeyState] = {}
        #: uid -> (spec, key) for every live (and past) input.
        self.input_specs: dict[int, tuple[QoSSpec, str]] = {}
        self._demanding: dict[int, str] = {}  # uid -> key

    # ------------------------------------------------------------------
    # BrowserPolicy hooks
    # ------------------------------------------------------------------
    def bind(self, browser) -> None:  # noqa: D401 - see base class
        super().bind(browser)
        self.platform.set_config(self.idle_manager.idle_config)

    def on_input(self, msg: InputMsg, event: Event) -> None:
        self._serve(msg, event, self.registry.lookup(event.target, event.type))

    def _serve(self, msg: InputMsg, event: Event, spec: Optional[QoSSpec]) -> None:
        """Serve an input under its looked-up annotation ``spec``; an
        unannotated input (``None``) gets the fallback spec."""
        if spec is None:
            spec = self.fallback_spec
            self.stats.unannotated_inputs += 1
        self._enter(msg, spec, event_key(msg.target_key, event.type))

    def _enter(self, msg: InputMsg, spec: QoSSpec, key: str) -> None:
        """Serve a new input under ``spec``, adapting on policy ``key``."""
        self.stats.inputs_seen += 1
        self.input_specs[msg.uid] = (spec, key)
        if self._key_state(key).frameless:
            # The key never produces frames; nothing to optimise for.
            return
        self._demanding[msg.uid] = key
        self.idle_manager.cancel_pending()
        self.platform.set_config(self._config_for(key, spec))

    def on_frame_scheduled(self, vsync_us: int, msgs: list[InputMsg]) -> None:
        governing = self._governing_spec(msgs)
        if governing is None:
            return
        spec, key = governing
        self.idle_manager.cancel_pending()
        self.platform.set_config(self._config_for(key, spec))

    def on_frame_displayed(self, frame: FrameRecord) -> None:
        governing = self._governing_spec([c.msg for c in frame.contributors])
        if governing is None:
            return
        spec, key = governing
        state = self._key_state(key)
        observed_us = float(frame.max_latency_us)
        target_us = self.scenario.operative_target_ms(spec.target) * 1_000.0

        now = self.platform.kernel._now_us
        for observer in self.platform._hooks["observed"]:
            observer.observed(now, key, state.phase.value, int(observed_us), int(target_us),
                              observed_us > target_us)
        if not self.profiler.observe(state, spec, observed_us):
            self.feedback_controller.feedback(state, observed_us, target_us)

        # A single event's QoS demand ends with its response frame;
        # anything after is post-frame work run in low-power mode.
        if spec.qos_type is QoSType.SINGLE:
            for contributor in frame.contributors:
                self._demanding.pop(contributor.msg.uid, None)
            self.idle_manager.maybe_go_idle()

    def on_input_complete(self, record: InputRecord) -> None:
        entry = self.input_specs.get(record.uid)
        if entry is not None:
            state = self._key_state(entry[1])
            if record.frame_count == 0:
                state.frameless_inputs += 1
                if state.frameless_inputs >= 2 and state.phase is _Phase.PROFILE_MAX:
                    # Two whole inputs without a single frame while the
                    # key was still waiting for its first profiling
                    # sample: this event type paints nothing here.
                    state.frameless = True
            else:
                state.frameless_inputs = 0
        self._demanding.pop(record.uid, None)
        self.idle_manager.maybe_go_idle()

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def _key_state(self, key: str) -> _KeyState:
        if key not in self._keys:
            self._keys[key] = _KeyState()
        return self._keys[key]

    def _config_for(self, key: str, spec: QoSSpec) -> CpuConfig:
        state = self._key_state(key)
        profiling_config = self.profiler.phase_config(state)
        if profiling_config is not None:
            self.stats.profiling_frames += 1
            return profiling_config
        target_ms = self.scenario.operative_target_ms(spec.target)
        prediction = self.predictor.predict(state.models, target_ms * self.target_headroom)
        state.last_prediction = prediction
        self.stats.predictions += 1
        requested = self._apply_boost(prediction.config, state.boost)
        predicted_at_requested = state.models.predict_us(requested)
        state.last_requested = (requested, predicted_at_requested)
        now = self.platform.kernel._now_us
        for observer in self.platform._hooks["predicted"]:
            observer.predicted(now, key, target_ms, requested, round(predicted_at_requested, 1),
                               round(prediction.energy_j, 9), prediction.meets_target,
                               state.boost)
        return requested

    def _apply_boost(self, config: CpuConfig, boost: int) -> CpuConfig:
        if boost == 0:
            return config
        index = self._config_index[config] + boost
        index = min(max(index, 0), len(self._configs) - 1)
        return self._configs[index]

    def _governing_spec(self, msgs: list[InputMsg]) -> Optional[tuple[QoSSpec, str]]:
        """The tightest-target spec among the inputs contributing to a
        frame (all associated frames of an event share its QoS target;
        when batching merges events, the strictest demand governs)."""
        best: Optional[tuple[QoSSpec, str]] = None
        best_target = float("inf")
        for msg in msgs:
            entry = self.input_specs.get(msg.uid)
            if entry is None:
                continue
            target = self.scenario.operative_target_ms(entry[0].target)
            if target < best_target:
                best = entry
                best_target = target
        return best

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def key_state_snapshot(self) -> dict[str, str]:
        """Per-key phase, for tests and debugging."""
        return {key: state.phase.value for key, state in self._keys.items()}

    def spec_for_uid(self, uid: int) -> Optional[QoSSpec]:
        """The QoS spec that governed an input (None if never seen)."""
        entry = self.input_specs.get(uid)
        return entry[0] if entry else None
