"""Tests for the Sec. 8 extensions: UAI energy budget, multi-app
contention, target headroom, and the fast-IVR platform variant."""

import pytest

from repro.browser import Browser, Page
from repro.core import AnnotationRegistry, GreenWebRuntime
from repro.core.qos import QoSSpec, QoSTarget, QoSType, ResponseExpectation
from repro.core.uai import UaiGreenWebRuntime, default_target_for, is_aggressive
from repro.errors import QosError, RuntimeModelError
from repro.hardware import CpuConfig, odroid_xu_e
from repro.scenarios import build_live_scenario
from repro.web import Callback, parse_html

AGGRESSIVE_MARKUP = """
<style>
  /* mis-annotation: demands 1 ms frames from a trivial tap */
  #btn:QoS { onclick-qos: single, 1, 2; }
</style>
<div id="btn"></div>
"""


def tap_callback(cycles=400_000):
    def body(ctx):
        ctx.do_work(cycles)
        ctx.mark_dirty(0.4)

    return Callback(body, "tap")


def build_uai(budget_j, markup=AGGRESSIVE_MARKUP):
    platform = odroid_xu_e()
    document, sheet = parse_html(markup)
    page = Page(name="uai", document=document, stylesheet=sheet)
    registry = AnnotationRegistry.from_stylesheet(sheet)
    runtime = UaiGreenWebRuntime(
        platform, registry, build_live_scenario("imperceptible", platform), energy_budget_j=budget_j
    )
    browser = Browser(platform, page, policy=runtime)
    return browser, platform, runtime


class TestAggressionDetection:
    def test_tighter_than_default_is_aggressive(self):
        spec = QoSSpec(QoSType.SINGLE, QoSTarget(1, 2))
        assert is_aggressive(spec)

    def test_defaults_are_not_aggressive(self):
        assert not is_aggressive(QoSSpec.single())
        assert not is_aggressive(QoSSpec.continuous())
        assert not is_aggressive(QoSSpec.single(ResponseExpectation.LONG))

    def test_default_target_for_continuous(self):
        spec = QoSSpec(QoSType.CONTINUOUS, QoSTarget(1, 2))
        assert default_target_for(spec) == QoSSpec.continuous()

    def test_default_target_infers_expectation(self):
        tight = QoSSpec(QoSType.SINGLE, QoSTarget(5, 10))
        assert default_target_for(tight).target.imperceptible_ms == 100


class TestUaiRuntime:
    def test_budget_must_be_positive(self):
        platform = odroid_xu_e()
        with pytest.raises(QosError):
            UaiGreenWebRuntime(
                platform, AnnotationRegistry(), build_live_scenario("imperceptible", platform), energy_budget_j=0
            )

    def test_within_budget_annotations_honoured(self):
        browser, platform, runtime = build_uai(budget_j=1e9)
        btn = browser.page.document.get_element_by_id("btn")
        btn.add_event_listener("click", tap_callback())
        browser.dispatch_event("click", btn)
        browser.run_until_quiescent()
        assert runtime.aggressive_inputs_seen == 1
        assert runtime.clamped_inputs == 0

    def test_exhausted_budget_clamps_aggressive_annotations(self):
        browser, platform, runtime = build_uai(budget_j=1e-9)
        btn = browser.page.document.get_element_by_id("btn")
        btn.add_event_listener("click", tap_callback())
        platform.run_for(10_000)  # consume the (tiny) budget
        assert runtime.budget_exhausted
        msg = browser.dispatch_event("click", btn)
        browser.run_until_quiescent()
        assert runtime.clamped_inputs == 1
        spec = runtime.spec_for_uid(msg.uid)
        assert spec.target.imperceptible_ms == 100  # Table 1 default

    def test_clamping_saves_energy(self):
        """The attack from Sec. 8: a 1 ms target forces peak configs.
        With the budget gone, UAI's clamp must cut energy."""

        def run(budget):
            browser, platform, runtime = build_uai(budget_j=budget)
            btn = browser.page.document.get_element_by_id("btn")
            btn.add_event_listener("click", tap_callback())
            for _ in range(6):
                browser.dispatch_event("click", btn)
                browser.run_until_quiescent()
                platform.run_for(300_000)
            platform.meter.finalize(platform.kernel.now_us)
            return platform.meter.total_j

        assert run(budget=1e-9) < run(budget=1e9)

    @pytest.mark.parametrize("budget_j", [1e9, 1e-9])
    def test_each_input_is_looked_up_once(self, budget_j):
        markup = AGGRESSIVE_MARKUP + "<div id='plain'></div>"
        browser, platform, runtime = build_uai(budget_j=budget_j, markup=markup)
        lookups = []
        lookup = runtime.registry.lookup
        runtime.registry.lookup = lambda *args: lookups.append(args) or lookup(*args)
        platform.run_for(10_000)
        for element_id in ("btn", "plain", "btn"):
            target = browser.page.document.get_element_by_id(element_id)
            target.add_event_listener("click", tap_callback())
            browser.dispatch_event("click", target)
            browser.run_until_quiescent()
        assert len(lookups) == 3
        assert runtime.stats.inputs_seen == 3
        assert runtime.stats.unannotated_inputs == 1
        assert runtime.aggressive_inputs_seen == 2
        assert runtime.clamped_inputs == (2 if runtime.budget_exhausted else 0)


class TestBackgroundContention:
    """Sec. 8's multi-app environment, as the ``bgload`` scenario: a
    background application's periodic bursts on a dedicated context."""

    def test_greenweb_still_meets_qos_under_contention(self):
        """Sec. 8: with a background app occupying a core, the runtime
        still has a trade-off space and still delivers QoS."""
        markup = "<style>#btn:QoS { onclick-qos: single, short; }</style><div id='btn'></div>"
        platform = odroid_xu_e()
        document, sheet = parse_html(markup)
        page = Page(name="contended", document=document, stylesheet=sheet)
        registry = AnnotationRegistry.from_stylesheet(sheet)
        # 20 ms periods of 3 Mcycles: half a period on a 600 MHz A7.
        scenario = build_live_scenario("bgload(duty=0.5,period_ms=20)", platform)
        runtime = GreenWebRuntime(platform, registry, scenario)
        browser = Browser(platform, page, policy=runtime)
        scenario.attach(browser)

        btn = page.document.get_element_by_id("btn")
        btn.add_event_listener("click", tap_callback())
        latencies = []
        for _ in range(5):
            msg = browser.dispatch_event("click", btn)
            browser.run_until_quiescent()
            platform.run_for(400_000)
            latencies.append(browser.tracker.record(msg.uid).first_frame_latency_us)
        # The stable-phase taps stay within the 100 ms target.
        assert all(lat < 100_000 for lat in latencies[2:])
        assert scenario.periods > 50

    def test_background_contention_costs_energy(self):
        def run(scenario):
            platform = odroid_xu_e()
            build_live_scenario(scenario, platform)
            platform.run_for(1_000_000)
            return platform.meter.total_j

        assert run("bgload(duty=1,period_ms=10)") > run("imperceptible")


class TestTargetHeadroom:
    def test_validation(self):
        platform = odroid_xu_e()
        with pytest.raises(RuntimeModelError):
            GreenWebRuntime(
                platform, AnnotationRegistry(), build_live_scenario("imperceptible", platform), target_headroom=0
            )
        with pytest.raises(RuntimeModelError):
            GreenWebRuntime(
                platform, AnnotationRegistry(), build_live_scenario("imperceptible", platform), target_headroom=1.5
            )

    def test_headroom_reduces_violations_at_energy_cost(self):
        from repro.evaluation.runner import run_workload

        tight = run_workload(
            "w3schools", "greenweb(target_headroom=0.5)", "usable",
            "micro",
        )
        none = run_workload("w3schools", "greenweb", "usable", "micro")
        assert tight.mean_violation_pct <= none.mean_violation_pct
        assert tight.active_energy_j >= none.active_energy_j


class TestFastVoltageRegulators:
    def test_ivr_platform_switches_faster(self):
        platform = odroid_xu_e(fast_voltage_regulators=True)
        assert platform.dvfs.freq_switch_overhead_us == 5
        platform.set_config(CpuConfig("big", 1000))
        platform.run_for(6)
        assert platform.config == CpuConfig("big", 1000)

    def test_default_platform_keeps_paper_overheads(self):
        platform = odroid_xu_e()
        assert platform.dvfs.freq_switch_overhead_us == 100
        assert platform.dvfs.migration_overhead_us == 20

    def test_zero_overhead_allowed(self):
        platform = odroid_xu_e()
        from repro.hardware.dvfs import DvfsController

        controller = DvfsController(platform, freq_switch_overhead_us=0)
        assert controller.freq_switch_overhead_us == 0

    def test_negative_overhead_rejected(self):
        from repro.errors import HardwareError
        from repro.hardware.dvfs import DvfsController

        with pytest.raises(HardwareError):
            DvfsController(odroid_xu_e(), freq_switch_overhead_us=-1)


class TestUaiContinuousAggression:
    CONTINUOUS_MARKUP = """
    <style>
      /* demands 2 ms animation frames — tighter than any display */
      #anim:QoS { ontouchstart-qos: continuous, 2, 4; }
    </style>
    <div id="anim"></div>
    """

    def test_continuous_clamp_returns_table1_defaults(self):
        browser, platform, runtime = build_uai(
            budget_j=1e-9, markup=self.CONTINUOUS_MARKUP
        )
        anim = browser.page.document.get_element_by_id("anim")
        anim.add_event_listener(
            "touchstart",
            Callback(lambda ctx: ctx.animate(anim, "left", duration_ms=300), "go"),
        )
        platform.run_for(10_000)
        assert runtime.budget_exhausted
        msg = browser.dispatch_event("touchstart", anim)
        browser.run_until_quiescent(max_extra_us=2_000_000)
        spec = runtime.spec_for_uid(msg.uid)
        # Clamped to the continuous category default (16.6, 33.3).
        assert spec.target.imperceptible_ms == pytest.approx(16.6)
        assert spec.target.usable_ms == pytest.approx(33.3)
        assert runtime.clamped_inputs == 1
