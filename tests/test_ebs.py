"""Tests for the EBS (event-based scheduling) baseline (Sec. 9)."""

import pytest

from repro.browser import Browser, Page
from repro.core.ebs import EbsGovernor
from repro.core.runtime_state import _Phase
from repro.errors import RuntimeModelError
from repro.evaluation.runner import run_workload
from repro.hardware import odroid_xu_e
from repro.web import Callback, parse_html

I = "imperceptible"


def build(markup="<div id='btn'></div>", **kwargs):
    platform = odroid_xu_e()
    document, sheet = parse_html(markup)
    page = Page(name="ebs-test", document=document, stylesheet=sheet)
    governor = EbsGovernor(platform, **kwargs)
    browser = Browser(platform, page, policy=governor)
    return browser, platform, governor


class TestConstruction:
    def test_validation(self):
        platform = odroid_xu_e()
        with pytest.raises(RuntimeModelError):
            EbsGovernor(platform, tolerance_factor=0.5)
        with pytest.raises(RuntimeModelError):
            EbsGovernor(platform, latency_ewma_alpha=0)

    def test_starts_idle(self):
        browser, platform, governor = build()
        platform.run_for(1_000)
        assert platform.config == governor.idle_config


class TestBehaviour:
    def tap(self, cycles=50_000_000):
        def body(ctx):
            ctx.do_work(cycles)
            ctx.mark_dirty(0.5)

        return Callback(body, "tap")

    def test_profiles_then_schedules(self):
        browser, platform, governor = build()
        btn = browser.page.document.get_element_by_id("btn")
        btn.add_event_listener("click", self.tap())
        for _ in range(4):
            browser.dispatch_event("click", btn)
            browser.run_until_quiescent()
            platform.run_for(200_000)
        state = next(iter(governor._keys.values()))
        assert state.phase is _Phase.STABLE
        assert state.observed_latency_us is not None
        assert governor.decisions >= 4

    def test_latency_drift_the_papers_critique(self):
        """Running slower inflates the next measurement: the observed
        latency after several EBS-scheduled events exceeds the latency
        the same events had at peak performance."""
        browser, platform, governor = build()
        btn = browser.page.document.get_element_by_id("btn")
        btn.add_event_listener("click", self.tap())
        records = []
        for _ in range(8):
            msg = browser.dispatch_event("click", btn)
            browser.run_until_quiescent()
            platform.run_for(200_000)
            records.append(browser.tracker.record(msg.uid))
        first = records[0].first_frame_latency_us  # measured at peak (profiling)
        last = records[-1].first_frame_latency_us
        assert last > first  # QoS drifted downward, unnoticed by EBS

    def test_conserves_when_idle(self):
        browser, platform, governor = build()
        btn = browser.page.document.get_element_by_id("btn")
        btn.add_event_listener("click", self.tap(cycles=500_000))
        browser.dispatch_event("click", btn)
        browser.run_until_quiescent()
        platform.run_for(100_000)
        assert platform.config == governor.idle_config


class TestVsGreenWeb:
    def test_ebs_violates_where_greenweb_does_not(self):
        """Cnet's menu animation: EBS has no idea 16.6 ms matters."""
        ebs = run_workload("cnet", "ebs", I, "micro")
        green = run_workload("cnet", "greenweb", I, "micro")
        assert ebs.mean_violation_pct > green.mean_violation_pct + 5.0

    def test_ebs_wastes_energy_on_latency_tolerant_events(self):
        """LZMA-JS taps: users tolerate 1 s, but EBS only knows the
        measured latency (fast at peak) and keeps performance high."""
        ebs = run_workload("lzma_js", "ebs", I, "micro")
        green = run_workload("lzma_js", "greenweb", I, "micro")
        assert ebs.active_energy_j > green.active_energy_j
