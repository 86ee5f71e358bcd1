"""Unit tests for GreenWebRuntime internals: governing-spec selection,
boost clamping, frameless detection, idle grace, EWMA math, headroom,
and the decision trace."""

import pytest

from repro.browser import Browser, Page
from repro.browser.messages import InputMsg
from repro.core import AnnotationRegistry, GreenWebRuntime
from repro.core.perf_model import PerfModelCoefficients
from repro.core.qos import QoSSpec, ResponseExpectation
from repro.core.runtime import _KeyState, _Phase
from repro.hardware import CpuConfig, odroid_xu_e
from repro.scenarios import build_live_scenario
from repro.sim.tracing import TraceLog
from repro.web import Callback, parse_html
from repro.web.events import EventType


def make_runtime(css="", **kwargs):
    platform = odroid_xu_e()
    registry = (
        AnnotationRegistry.from_stylesheet(
            __import__("repro.web.css.parser", fromlist=["parse_stylesheet"]).parse_stylesheet(css)
        )
        if css
        else AnnotationRegistry()
    )
    runtime = GreenWebRuntime(platform, registry, build_live_scenario("imperceptible", platform), **kwargs)
    return runtime, platform


class TestGoverningSpec:
    def test_tightest_target_wins(self):
        runtime, _ = make_runtime()
        tight = QoSSpec.continuous()            # 16.6 ms
        loose = QoSSpec.single(ResponseExpectation.LONG)  # 1000 ms
        runtime.input_specs[1] = (loose, "k-loose")
        runtime.input_specs[2] = (tight, "k-tight")
        msgs = [InputMsg(1, 0, EventType.CLICK), InputMsg(2, 0, EventType.TOUCHMOVE)]
        spec, key = runtime._governing_spec(msgs)
        assert key == "k-tight"

    def test_unknown_uids_skipped(self):
        runtime, _ = make_runtime()
        runtime.input_specs[5] = (QoSSpec.single(), "k")
        msgs = [InputMsg(9, 0, EventType.CLICK), InputMsg(5, 0, EventType.CLICK)]
        spec, key = runtime._governing_spec(msgs)
        assert key == "k"

    def test_all_unknown_returns_none(self):
        runtime, _ = make_runtime()
        assert runtime._governing_spec([InputMsg(9, 0, EventType.CLICK)]) is None


class TestBoostClamping:
    def fitted_state(self, runtime):
        state = _KeyState()
        big = PerfModelCoefficients(2_000.0, 8_000_000.0)
        state.models.set("big", big)
        state.models.set("little", big.scaled_cycles(2.0))
        state.phase = _Phase.STABLE
        return state

    def test_boost_clamps_at_top(self):
        runtime, _ = make_runtime()
        top = runtime._configs[-1]
        assert runtime._apply_boost(top, boost=5) == top

    def test_boost_clamps_at_bottom(self):
        runtime, _ = make_runtime()
        bottom = runtime._configs[0]
        assert runtime._apply_boost(bottom, boost=-5) == bottom

    def test_positive_boost_steps_up(self):
        runtime, _ = make_runtime()
        base = CpuConfig("little", 600)
        boosted = runtime._apply_boost(base, boost=1)
        assert boosted == CpuConfig("big", 800)  # cluster edge crossing

    def test_feedback_violation_bumps_boost(self):
        runtime, _ = make_runtime()
        state = self.fitted_state(runtime)
        state.last_requested = (CpuConfig("big", 800), 10_000.0)
        runtime.feedback_controller.feedback(state, observed_us=25_000.0, target_us=16_600.0)
        assert state.boost == 1

    def test_overprediction_needs_two_in_a_row(self):
        runtime, _ = make_runtime()
        state = self.fitted_state(runtime)
        state.last_requested = (CpuConfig("big", 800), 10_000.0)
        runtime.feedback_controller.feedback(state, observed_us=1_000.0, target_us=16_600.0)
        assert state.boost == 0  # debounced
        state.last_requested = (CpuConfig("big", 800), 10_000.0)
        runtime.feedback_controller.feedback(state, observed_us=1_000.0, target_us=16_600.0)
        assert state.boost == -1

    def test_accurate_prediction_resets_streaks(self):
        runtime, _ = make_runtime()
        state = self.fitted_state(runtime)
        state.last_requested = (CpuConfig("big", 800), 10_000.0)
        runtime.feedback_controller.feedback(state, observed_us=1_000.0, target_us=16_600.0)
        state.last_requested = (CpuConfig("big", 800), 10_000.0)
        runtime.feedback_controller.feedback(state, observed_us=10_100.0, target_us=16_600.0)
        assert state.overpredict_streak == 0
        assert state.consecutive_mispredictions == 0

    def test_recalibration_after_threshold(self):
        runtime, _ = make_runtime(recalibration_threshold=2, ewma_model_update=False)
        state = self.fitted_state(runtime)
        for _ in range(3):
            state.last_requested = (CpuConfig("big", 800), 10_000.0)
            runtime.feedback_controller.feedback(state, observed_us=16_000.0, target_us=100_000.0)
        assert state.phase is _Phase.PROFILE_MAX
        assert state.recalibrations == 1
        assert state.boost == 0


class TestEwmaUpdate:
    def test_blend_moves_toward_observation(self):
        runtime, _ = make_runtime(ewma_alpha=0.5)
        state = _KeyState()
        state.models.set("big", PerfModelCoefficients(1_000.0, 8_000_000.0))
        state.models.set("little", PerfModelCoefficients(1_000.0, 16_000_000.0))
        # Observed at big@800: latency 21ms -> residual 20ms -> 16M cycles.
        runtime.feedback_controller.ewma_update(state, CpuConfig("big", 800), observed_us=21_000.0)
        updated = state.models.get("big").n_cycles
        assert updated == pytest.approx(0.5 * 8_000_000 + 0.5 * 16_000_000)
        # Little model re-derived via the IPC factor (2x at ipc 0.5).
        assert state.models.get("little").n_cycles == pytest.approx(2 * updated)

    def test_observation_below_t_independent_ignored(self):
        runtime, _ = make_runtime()
        state = _KeyState()
        state.models.set("big", PerfModelCoefficients(5_000.0, 8_000_000.0))
        runtime.feedback_controller.ewma_update(state, CpuConfig("big", 800), observed_us=3_000.0)
        assert state.models.get("big").n_cycles == 8_000_000.0


class TestFramelessDetection:
    def test_direct_detection_path(self):
        runtime, platform = make_runtime(
            css="#x:QoS { ontouchstart-qos: single, short; }"
        )
        from repro.browser.frame_tracker import InputRecord

        for uid in (1, 2):
            msg = InputMsg(uid, 0, EventType.TOUCHSTART, target_key="#x")
            runtime.input_specs[uid] = (QoSSpec.single(), "#x@touchstart")
            runtime._key_state("#x@touchstart")
            record = InputRecord(msg=msg)  # zero frames
            runtime.on_input_complete(record)
        assert runtime._key_state("#x@touchstart").frameless

    def test_frame_resets_counter(self):
        runtime, _ = make_runtime()
        from repro.browser.frame_tracker import InputRecord

        key = "#x@click"
        runtime._key_state(key)
        msg1 = InputMsg(1, 0, EventType.CLICK)
        runtime.input_specs[1] = (QoSSpec.single(), key)
        runtime.on_input_complete(InputRecord(msg=msg1))
        msg2 = InputMsg(2, 0, EventType.CLICK)
        runtime.input_specs[2] = (QoSSpec.single(), key)
        runtime.on_input_complete(InputRecord(msg=msg2, frame_latencies_us=[5_000]))
        assert not runtime._key_state(key).frameless
        assert runtime._key_state(key).frameless_inputs == 0


class TestDecisionTrace:
    def test_predict_and_observe_records_emitted(self):
        markup = "<style>#b:QoS { onclick-qos: single, short; }</style><div id='b'></div>"
        platform = odroid_xu_e(trace=TraceLog())
        document, sheet = parse_html(markup)
        page = Page(name="t", document=document, stylesheet=sheet)
        runtime = GreenWebRuntime(
            platform,
            AnnotationRegistry.from_stylesheet(sheet),
            build_live_scenario("imperceptible", platform),
        )
        browser = Browser(platform, page, policy=runtime)
        b = document.get_element_by_id("b")
        b.add_event_listener("click", Callback(lambda ctx: (ctx.do_work(500_000), ctx.mark_dirty(0.5)) and None))
        for _ in range(3):
            browser.dispatch_event("click", b)
            browser.run_until_quiescent()
        observes = platform.trace.filter(category="greenweb", name="observe")
        predicts = platform.trace.filter(category="greenweb", name="predict")
        assert len(observes) == 3
        assert len(predicts) >= 1  # third event is post-profiling
        assert predicts[0]["target_ms"] == 100
        assert "big@" in predicts[0]["config"] or "little@" in predicts[0]["config"]

    def test_headroom_scales_prediction_target(self):
        """With TI=100 ms and a 30M-cycle model, little@600 (eff 300 MHz,
        100 ms) meets the raw target but not the halved one, so 0.5
        headroom must pick a faster configuration."""

        def choose(headroom):
            runtime, _ = make_runtime(target_headroom=headroom)
            state = runtime._key_state("k")
            big = PerfModelCoefficients(0.0, 30_000_000.0)
            state.models.set("big", big)
            state.models.set("little", big.scaled_cycles(2.0))
            state.phase = _Phase.STABLE
            return runtime._config_for("k", QoSSpec.single())

        relaxed = choose(1.0)
        tight = choose(0.5)
        assert relaxed.cluster == "little"
        assert tight.cluster == "big"


class TestFourRunProfiling:
    def test_little_model_fitted_independently(self):
        from repro.evaluation.runner import run_workload

        result = run_workload(
            "craigslist", "greenweb(profile_both_clusters=true)", "imperceptible", "micro"
        )
        # 4 phases x 3 frames (continuous key) = 12 profiling frames
        # for the scroll key, plus the touchstart key's bookkeeping.
        assert result.runtime_stats["profiling_frames"] >= 12
        assert result.frames > 50

    def test_phase_progression(self):
        runtime, platform = make_runtime(profile_both_clusters=True)
        state = runtime._key_state("k")
        spec = QoSSpec.single()
        # Phase 1: big fmax profiling config.
        assert runtime._config_for("k", spec) == CpuConfig("big", 1800)
        # After the big fit, 4-run mode continues on the little cluster.
        state.profile_sample = (1800, 10_000.0)
        state.phase = _Phase.PROFILE_MIN
        runtime.profiler.finish_big_profiling(state, 20_000.0)
        assert state.phase is _Phase.PROFILE_LITTLE_MAX
        assert runtime._config_for("k", spec) == CpuConfig("little", 600)
        # Finish the little fit: stable with both models present.
        state.profile_sample = (600, 40_000.0)
        state.phase = _Phase.PROFILE_LITTLE_MIN
        runtime.profiler.finish_little_profiling(state, 70_000.0)
        assert state.phase is _Phase.STABLE
        assert state.models.has("big") and state.models.has("little")

    def test_two_run_mode_default(self):
        runtime, _ = make_runtime()
        assert runtime.profiler.profile_both_clusters is False


class TestSurgeAwarePrediction:
    def test_validation(self):
        from repro.errors import RuntimeModelError

        with pytest.raises(RuntimeModelError):
            make_runtime(surge_percentile=0.3)
        with pytest.raises(RuntimeModelError):
            make_runtime(surge_window=1)

    def test_percentile_floor_applied(self):
        runtime, _ = make_runtime(surge_aware=True, ewma_alpha=0.1)
        state = runtime._key_state("k")
        state.models.set("big", PerfModelCoefficients(0.0, 1_000_000.0))
        state.models.set("little", PerfModelCoefficients(0.0, 2_000_000.0))
        # Nine light frames and one surge at big@1000.
        for observed_ms in [2.0] * 9 + [10.0]:
            runtime.feedback_controller.ewma_update(state, CpuConfig("big", 1000), observed_ms * 1000)
        # The model must remember the surge (p90 of recent history),
        # not average it away: 10 ms at 1000 MHz = 10M cycles.
        assert state.models.get("big").n_cycles >= 9_000_000

    def test_mean_mode_forgets_surges(self):
        runtime, _ = make_runtime(surge_aware=False, ewma_alpha=0.1)
        state = runtime._key_state("k")
        state.models.set("big", PerfModelCoefficients(0.0, 1_000_000.0))
        state.models.set("little", PerfModelCoefficients(0.0, 2_000_000.0))
        for observed_ms in [10.0] + [2.0] * 9:
            runtime.feedback_controller.ewma_update(state, CpuConfig("big", 1000), observed_ms * 1000)
        assert state.models.get("big").n_cycles < 5_000_000
