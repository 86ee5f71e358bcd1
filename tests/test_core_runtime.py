"""Integration tests: GreenWeb runtime and baseline governors driving
the full browser + platform stack."""


import pytest

from repro.core import (
    AnnotationRegistry,
    InteractiveGovernor,
    OndemandGovernor,
    PinnedGovernor,
)
from repro.hardware import CpuConfig
from repro.hardware.platform import odroid_xu_e
from repro.policies import POLICIES
from repro.scenarios import build_live_scenario
from repro.web import Callback

from tests.conftest import build, greenweb_factory, light_tap_callback


class TestGreenWebSingleEvents:
    def test_starts_at_idle_config(self):
        browser, platform, runtime = build(greenweb_factory())
        platform.run_for(500)
        assert platform.config == runtime.idle_manager.idle_config

    def test_first_two_events_are_profiling_runs(self):
        browser, platform, runtime = build(greenweb_factory())
        btn = browser.page.document.get_element_by_id("btn")
        btn.add_event_listener("click", light_tap_callback())

        browser.dispatch_event("click", btn)
        platform.run_for(2_000)  # past DVFS apply
        assert platform.config == CpuConfig("big", 1800)  # profile at fmax
        browser.run_until_quiescent()

        browser.dispatch_event("click", btn)
        platform.run_for(2_000)
        assert platform.config == CpuConfig("big", 800)  # profile at fmin
        browser.run_until_quiescent()

        assert runtime.key_state_snapshot() == {"#btn@click": "stable"}

    def test_stable_phase_prefers_cheap_config_for_loose_target(self):
        browser, platform, runtime = build(greenweb_factory())
        btn = browser.page.document.get_element_by_id("btn")
        btn.add_event_listener("click", light_tap_callback())
        for _ in range(3):
            browser.dispatch_event("click", btn)
            browser.run_until_quiescent()
        # Third event used the fitted model; a light frame against a
        # 100 ms target fits comfortably on the little cluster.
        assert runtime.stats.predictions >= 1
        last = runtime._keys["#btn@click"].last_prediction
        assert last.config.cluster == "little"
        assert last.meets_target

    def test_returns_to_idle_after_single_frame(self):
        browser, platform, runtime = build(greenweb_factory())
        btn = browser.page.document.get_element_by_id("btn")
        btn.add_event_listener("click", light_tap_callback())
        browser.dispatch_event("click", btn)
        browser.run_until_quiescent()
        platform.run_for(200_000)  # past the idle-drop grace period
        assert platform.config == runtime.idle_manager.idle_config
        assert runtime.stats.idle_drops >= 1

    def test_unannotated_input_gets_conservative_fallback(self):
        browser, platform, runtime = build(greenweb_factory(), markup="<div id='x'></div>")
        x = browser.page.document.get_element_by_id("x")
        x.add_event_listener("click", light_tap_callback())
        msg = browser.dispatch_event("click", x)
        browser.run_until_quiescent()
        assert runtime.stats.unannotated_inputs == 1
        spec = runtime.spec_for_uid(msg.uid)
        assert spec is not None and spec.target.imperceptible_ms == 100


class TestGreenWebContinuousEvents:
    def drive_animation(self, scenario, frame_cycles=3_000_000, duration_ms=800):
        browser, platform, runtime = build(greenweb_factory(), scenario=scenario)
        anim = browser.page.document.get_element_by_id("anim")

        def start(ctx):
            ctx.do_work(200_000)
            ctx.animate(anim, "left", duration_ms=duration_ms,
                        frame_complexity=1.0, frame_script_cycles=frame_cycles)

        anim.add_event_listener("touchstart", Callback(start, "startAnim"))
        msg = browser.dispatch_event("touchstart", anim)
        browser.run_until_quiescent(max_extra_us=5_000_000)
        return browser, platform, runtime, msg

    def test_animation_frames_get_per_frame_predictions(self):
        browser, platform, runtime, msg = self.drive_animation("imperceptible")
        record = browser.tracker.record(msg.uid)
        assert record.frame_count > 20
        # Profiling used 6 frames (3 per phase for continuous events);
        # every subsequent frame was predicted.
        assert runtime.stats.predictions >= record.frame_count - 7

    def test_usable_scenario_uses_lower_performance_than_imperceptible(self):
        _, _, runtime_i, _ = self.drive_animation("imperceptible")
        _, _, runtime_u, _ = self.drive_animation("usable")
        pred_i = runtime_i._keys["#anim@touchstart"].last_prediction
        pred_u = runtime_u._keys["#anim@touchstart"].last_prediction
        cap = lambda p: (0 if p.config.cluster == "little" else 1, p.config.freq_mhz)
        assert cap(pred_u) <= cap(pred_i)

    def test_usable_run_consumes_less_energy(self):
        b_i, p_i, _, _ = self.drive_animation("imperceptible")
        b_u, p_u, _, _ = self.drive_animation("usable")
        assert p_u.meter.total_j < p_i.meter.total_j

    def test_conserves_after_animation_completes(self):
        browser, platform, runtime, msg = self.drive_animation("usable")
        platform.run_for(200_000)
        # Post-event the runtime conserves: either the idle config, or
        # it parks on the little cluster it already reached (staying
        # avoids a pointless down-switch; leakage gap is negligible).
        assert platform.config.cluster == "little"


class TestFeedback:
    def test_complexity_surge_triggers_boost(self):
        """A sudden frame-complexity increase mid-animation causes a
        violation, which the runtime answers by stepping up (Sec. 6.2)."""
        browser, platform, runtime = build(
            greenweb_factory(), scenario="usable"
        )
        anim = browser.page.document.get_element_by_id("anim")

        def raf_tick(ctx):
            ticks = ctx.state.setdefault("ticks", 0)
            ctx.state["ticks"] += 1
            # Surge: frames 20+ are 6x heavier.
            ctx.do_work(2_000_000 if ticks < 20 else 12_000_000)
            ctx.mark_dirty()
            if ticks < 45:
                ctx.request_animation_frame(raf_tick)

        anim.add_event_listener(
            "touchstart", Callback(lambda ctx: ctx.request_animation_frame(raf_tick), "go")
        )
        browser.dispatch_event("touchstart", anim)
        browser.run_until_quiescent(max_extra_us=5_000_000)
        assert runtime.stats.boosts_up >= 1
        assert runtime.stats.violations_fed_back >= 1

    def test_persistent_shift_triggers_recalibration(self):
        browser, platform, runtime = build(
            greenweb_factory(recalibration_threshold=2), scenario="usable"
        )
        anim = browser.page.document.get_element_by_id("anim")

        def raf_tick(ctx):
            ticks = ctx.state.setdefault("ticks", 0)
            ctx.state["ticks"] += 1
            ctx.do_work(1_000_000 if ticks < 10 else 9_000_000)
            ctx.mark_dirty()
            if ticks < 60:
                ctx.request_animation_frame(raf_tick)

        anim.add_event_listener(
            "touchstart", Callback(lambda ctx: ctx.request_animation_frame(raf_tick), "go")
        )
        browser.dispatch_event("touchstart", anim)
        browser.run_until_quiescent(max_extra_us=5_000_000)
        assert runtime.stats.recalibrations >= 1


BIG_MAX = CpuConfig("big", 1800)
LITTLE_MIN = CpuConfig("little", 350)


class TestBaselineGovernors:
    def test_perf_pins_big_max(self):
        browser, platform, _ = build(lambda p, s, sc: PinnedGovernor(p, BIG_MAX))
        btn = browser.page.document.get_element_by_id("btn")
        btn.add_event_listener("click", light_tap_callback())
        browser.dispatch_event("click", btn)
        browser.run_until_quiescent()
        assert platform.config == CpuConfig("big", 1800)
        assert platform.dvfs.switch_count <= 1  # initial pin only

    def test_powersave_pins_little_min(self):
        browser, platform, _ = build(lambda p, s, sc: PinnedGovernor(p, LITTLE_MIN))
        platform.run_for(1_000)
        assert platform.config == CpuConfig("little", 350)

    @pytest.mark.parametrize("name, config", [("perf", BIG_MAX), ("powersave", LITTLE_MIN)])
    def test_registry_pins_read_the_platform(self, name, config):
        platform = odroid_xu_e()
        policy = POLICIES.build(
            name, platform, AnnotationRegistry(),
            build_live_scenario("imperceptible", platform),
        )
        assert isinstance(policy, PinnedGovernor)
        assert policy.config == config

    def test_interactive_boosts_on_input(self):
        browser, platform, gov = build(lambda p, s, sc: InteractiveGovernor(p))
        platform.run_for(200_000)  # settle to floor
        assert platform.config == CpuConfig("little", 350)
        btn = browser.page.document.get_element_by_id("btn")
        btn.add_event_listener("click", light_tap_callback())
        browser.dispatch_event("click", btn)
        platform.run_for(1_000)
        assert platform.config == CpuConfig("big", 1800)

    def test_interactive_parks_at_hispeed_while_idle(self):
        """Deferrable-timer semantics: with no runnable work the
        governor's sampling timer does not re-evaluate, so after a
        boost the configuration parks at hispeed — the paper's
        'Interactive is almost always at peak performance'."""
        browser, platform, gov = build(lambda p, s, sc: InteractiveGovernor(p))
        btn = browser.page.document.get_element_by_id("btn")
        btn.add_event_listener("click", light_tap_callback())
        browser.dispatch_event("click", btn)
        browser.run_until_quiescent()
        platform.run_for(500_000)  # long idle: frequency stays parked
        assert platform.config == CpuConfig("big", 1800)

    def test_interactive_stays_high_during_animation(self):
        """The paper's observation: continuous frames keep utilization
        (and hence the interactive governor) near peak."""
        browser, platform, gov = build(lambda p, s, sc: InteractiveGovernor(p))
        anim = browser.page.document.get_element_by_id("anim")
        anim.add_event_listener(
            "touchstart",
            Callback(
                lambda ctx: ctx.animate(anim, "left", duration_ms=600,
                                        frame_script_cycles=4_000_000),
                "go",
            ),
        )
        browser.dispatch_event("touchstart", anim)
        platform.run_for(500_000)
        assert platform.config == CpuConfig("big", 1800)

    def test_ondemand_reacts_to_load(self):
        browser, platform, gov = build(lambda p, s, sc: OndemandGovernor(p))
        anim = browser.page.document.get_element_by_id("anim")
        anim.add_event_listener(
            "touchstart",
            Callback(
                lambda ctx: ctx.animate(anim, "left", duration_ms=400,
                                        frame_script_cycles=12_000_000),
                "go",
            ),
        )
        browser.dispatch_event("touchstart", anim)
        platform.run_for(300_000)
        assert platform.config == CpuConfig("big", 1800)


class TestEnergyComparison:
    def run_with(self, policy_factory, scenario="imperceptible"):
        browser, platform, _ = build(policy_factory, scenario=scenario)
        btn = browser.page.document.get_element_by_id("btn")
        btn.add_event_listener("click", light_tap_callback())
        for _ in range(5):
            browser.dispatch_event("click", btn)
            browser.run_until_quiescent()
            platform.run_for(400_000)
        platform.meter.finalize(platform.kernel.now_us)
        return platform.meter.total_j

    def test_greenweb_beats_perf_on_light_taps(self):
        """The Fig. 9a 'Todo-like' case: light single frames against a
        loose target make Perf waste most of its energy."""
        perf = self.run_with(lambda p, s, sc: PinnedGovernor(p, BIG_MAX))
        greenweb = self.run_with(greenweb_factory())
        assert greenweb < 0.75 * perf

    def test_greenweb_usable_saves_more_than_imperceptible(self):
        g_i = self.run_with(greenweb_factory(), "imperceptible")
        g_u = self.run_with(greenweb_factory(), "usable")
        assert g_u <= g_i * 1.02
