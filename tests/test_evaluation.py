"""Tests for evaluation metrics, the runner, and the session facade."""

import math

import pytest
from hypothesis import given, strategies as st

from repro import Session
from repro.browser.frame_tracker import InputRecord
from repro.browser.messages import InputMsg
from repro.core.qos import QoSSpec
from repro.errors import EvaluationError
from repro.evaluation.metrics import (
    event_violation_pct,
    geo_mean_violation_pct,
    mean_violation_pct,
    switching_per_frame_pct,
    violation_pct,
)
from repro.evaluation.folds import ConfigTimelineFold
from repro.evaluation.runner import (
    GOVERNORS,
    SessionExecution,
    run_result_to_dict,
    run_workload,
    run_workload_job,
)
from repro.hardware.dvfs import CpuConfig
from repro.scenarios import SCENARIOS
from repro.web.events import EventType
from repro.workloads.registry import build_app

I = "imperceptible"
U = "usable"


class TestViolationMetrics:
    def test_paper_example(self):
        """Sec. 7.2: 200 ms latency under a 100 ms target = 100%."""
        assert violation_pct(200_000, 100_000) == 100.0

    def test_no_violation_below_target(self):
        assert violation_pct(99_000, 100_000) == 0.0

    def test_invalid_target(self):
        with pytest.raises(EvaluationError):
            violation_pct(1, 0)

    def test_geo_mean_all_zero(self):
        assert geo_mean_violation_pct([10_000, 12_000], 100_000) == 0.0

    def test_geo_mean_mixed(self):
        # one frame at 2x target (100%), one at target (0%):
        # geo-mean of factors (2.0, 1.0) = sqrt(2) -> 41.4%
        value = geo_mean_violation_pct([200_000, 100_000], 100_000)
        assert value == pytest.approx((math.sqrt(2) - 1) * 100, rel=1e-9)

    def test_geo_mean_empty(self):
        assert geo_mean_violation_pct([], 100_000) == 0.0

    @given(st.lists(st.floats(min_value=1, max_value=1e6), min_size=1, max_size=20))
    def test_property_geo_mean_bounded_by_max(self, latencies):
        target = 50_000.0
        geo = geo_mean_violation_pct(latencies, target)
        worst = max(violation_pct(l, target) for l in latencies)
        assert 0 <= geo <= worst + 1e-6

    def test_event_violation_single_uses_first_frame(self):
        msg = InputMsg(1, 0, EventType.CLICK)
        record = InputRecord(msg=msg, frame_latencies_us=[150_000, 500_000])
        spec = QoSSpec.single()  # (100, 300) ms
        assert event_violation_pct(record, spec, SCENARIOS.build(I)) == pytest.approx(50.0)
        assert event_violation_pct(record, spec, SCENARIOS.build(U)) == 0.0

    def test_event_violation_continuous_uses_geo_mean(self):
        msg = InputMsg(1, 0, EventType.TOUCHMOVE)
        record = InputRecord(msg=msg, frame_latencies_us=[16_600, 33_200])
        spec = QoSSpec.continuous()
        value = event_violation_pct(record, spec, SCENARIOS.build(I))
        assert 0 < value < 100

    def test_event_violation_no_frames_is_none(self):
        msg = InputMsg(1, 0, EventType.CLICK)
        record = InputRecord(msg=msg)
        assert event_violation_pct(record, QoSSpec.single(), SCENARIOS.build(I)) is None

    def test_mean_skips_none(self):
        assert mean_violation_pct([None, 10.0, 20.0, None]) == 15.0
        assert mean_violation_pct([None, None]) == 0.0


class TestResidency:
    SWITCHES = ((250, CpuConfig("little", 600)), (750, CpuConfig("big", 800)))

    def fold(self, switches=SWITCHES):
        """The residency fold observing ``switches``, (time, config)
        pairs applied in order."""
        fold = ConfigTimelineFold()
        for time_us, config in switches:
            fold.config_applied(time_us, config)
        return fold

    def test_config_residency_fractions(self):
        residency = self.fold().residency(0, 1000, initial=CpuConfig("big", 1800))
        assert residency[CpuConfig("big", 1800)] == pytest.approx(0.25)
        assert residency[CpuConfig("little", 600)] == pytest.approx(0.50)
        assert residency[CpuConfig("big", 800)] == pytest.approx(0.25)
        assert sum(residency.values()) == pytest.approx(1.0)

    def test_empty_window_rejected(self):
        with pytest.raises(EvaluationError):
            self.fold(()).residency(10, 10, CpuConfig("big", 1800))

    def test_windowed_residency(self):
        residency = self.fold().windowed(
            [(0, 100), (700, 800)], initial=CpuConfig("big", 1800)
        )
        # window 1 (0-100): big@1800; window 2: 700-750 little, 750-800 big@800
        assert residency[CpuConfig("big", 1800)] == pytest.approx(0.5)
        assert residency[CpuConfig("little", 600)] == pytest.approx(0.25)
        assert residency[CpuConfig("big", 800)] == pytest.approx(0.25)

    def test_windowed_residency_no_windows(self):
        assert self.fold(()).windowed([], CpuConfig("big", 1800)) == {}

    def test_windowed_switch_exactly_on_window_start(self):
        # The 750 -> big@800 switch lands exactly on the window start:
        # the new config owns the whole window.
        residency = self.fold().windowed([(750, 850)], initial=CpuConfig("big", 1800))
        assert residency == {CpuConfig("big", 800): pytest.approx(1.0)}

    def test_windowed_switch_exactly_on_window_end(self):
        # The 750 switch on the window *end* boundary contributes zero
        # time: the window is owned entirely by the prior config.
        residency = self.fold().windowed([(650, 750)], initial=CpuConfig("big", 1800))
        assert residency == {CpuConfig("little", 600): pytest.approx(1.0)}

    def test_windowed_multiple_switches_before_first_window(self):
        # Both switches predate the window: only the latest one counts,
        # and earlier configs must not leak into the result.
        residency = self.fold().windowed([(900, 1000)], initial=CpuConfig("big", 1800))
        assert residency == {CpuConfig("big", 800): pytest.approx(1.0)}

    def test_windowed_switches_inside_between_and_after_windows(self):
        # One forward pass must match a per-window rescan: switches land
        # inside windows (two at once at 250), between them (400),
        # before a later window (900) and after the last one (1200);
        # an empty window is skipped.
        switches = [
            (time_us, CpuConfig(cluster, freq_mhz))
            for time_us, cluster, freq_mhz in [
                (100, "little", 600), (250, "big", 800), (250, "little", 1000),
                (400, "big", 1400), (550, "little", 400), (900, "big", 1100),
                (1200, "big", 1800),
            ]
        ]
        windows = [(50, 150), (200, 300), (500, 600), (600, 700), (1000, 1100), (1150, 1150)]
        residency = self.fold(switches).windowed(windows, initial=CpuConfig("big", 1800))
        assert list(residency.items()) == [
            (CpuConfig("big", 1800), 0.1),
            (CpuConfig("little", 600), 0.2),
            (CpuConfig("little", 1000), 0.1),
            (CpuConfig("big", 1400), 0.1),
            (CpuConfig("little", 400), 0.3),
            (CpuConfig("big", 1100), 0.2),
        ]

    def test_switching_pct(self):
        assert switching_per_frame_pct(5, 5, 50) == (10.0, 10.0)
        assert switching_per_frame_pct(1, 1, 0) == (0.0, 0.0)


class TestRunner:
    def test_unknown_governor(self):
        with pytest.raises(EvaluationError):
            run_workload("todo", "quantum")

    def test_unknown_trace_kind(self):
        with pytest.raises(EvaluationError):
            run_workload("todo", "perf", trace_kind="giant")

    def test_run_produces_complete_result(self):
        result = run_workload("todo", "perf", I, "micro")
        assert result.inputs == 6
        assert result.frames >= 6
        assert result.energy_j > 0
        assert result.active_energy_j > 0
        assert result.active_energy_j < result.energy_j
        assert len(result.event_violations_pct) == result.inputs
        assert sum(result.config_residency.values()) == pytest.approx(1.0)

    def test_determinism(self):
        a = run_workload("todo", "greenweb", I, "micro", seed=3)
        b = run_workload("todo", "greenweb", I, "micro", seed=3)
        assert a.energy_j == b.energy_j
        assert a.event_violations_pct == b.event_violations_pct

    def test_greenweb_run_reports_runtime_stats(self):
        result = run_workload("todo", "greenweb", I, "micro")
        assert result.runtime_stats is not None
        assert result.runtime_stats["inputs_seen"] == 6

    def test_perf_run_has_no_runtime_stats(self):
        assert run_workload("todo", "perf", I, "micro").runtime_stats is None

    @pytest.mark.parametrize("governor", GOVERNORS)
    def test_every_governor_runs(self, governor):
        result = run_workload("todo", governor, I, "micro")
        assert result.frames >= 1

    def test_a_policy_factory_needs_a_label(self):
        with pytest.raises(EvaluationError, match="label"):
            SessionExecution(
                build_app("todo"), lambda platform, registry, scenario: None,
                trace_kind="micro",
            )

    def test_a_post_hoc_spec_builds_no_session(self):
        with pytest.raises(EvaluationError, match="is post-hoc: it replays whole runs"):
            SessionExecution(build_app("todo"), "oracle", trace_kind="micro")

    def test_a_spec_session_runs_the_job_cell(self):
        """A session built from a spec with default keywords is the cell
        ``run_workload_job`` runs, labelled by the canonical spec."""
        governor, scenario = "greenweb( ewma_alpha = 0.25 )", "thermal(cap_mhz=1100)"
        execution = SessionExecution(
            build_app("todo", 1), governor, scenario, trace_kind="micro", seed=1
        )
        execution.run()
        result = run_result_to_dict(execution.finish())
        assert result["governor"] == "greenweb(ewma_alpha=0.25)"
        assert result == run_workload_job({
            "app": "todo", "governor": governor, "scenario": scenario,
            "trace_kind": "micro", "seed": 1,
        })

    def test_table3_rejects_trace_naming_missing_element(self, monkeypatch):
        from repro.evaluation.experiments import run_table3_characteristics
        from repro.workloads import registry
        from repro.workloads.interactions import InteractionTrace, ScriptedEvent

        real_build_app = registry.build_app

        def build_with_dangling_target(name, seed=0):
            bundle = real_build_app(name, seed)
            bundle.full_trace = InteractionTrace(
                bundle.full_trace.name,
                (*bundle.full_trace.events,
                 ScriptedEvent(0, EventType.CLICK, "no-such-element")),
            )
            return bundle

        monkeypatch.setattr(registry, "build_app", build_with_dangling_target)
        with pytest.raises(EvaluationError, match="no-such-element"):
            run_table3_characteristics()


class TestHeadlineShapes:
    """The paper's qualitative results must hold (DESIGN.md Sec. 4)."""

    def test_greenweb_saves_energy_vs_perf(self):
        perf = run_workload("cnet", "perf", I, "micro")
        green = run_workload("cnet", "greenweb", I, "micro")
        assert green.active_energy_j < 0.85 * perf.active_energy_j

    def test_usable_saves_more_than_imperceptible_on_continuous(self):
        green_i = run_workload("paperjs", "greenweb", I, "micro")
        green_u = run_workload("paperjs", "greenweb", U, "micro")
        assert green_u.active_energy_j < green_i.active_energy_j

    def test_interactive_close_to_perf(self):
        perf = run_workload("w3schools", "perf", I, "full")
        inter = run_workload("w3schools", "interactive", I, "full")
        assert inter.active_energy_j > 0.85 * perf.active_energy_j

    def test_imperceptible_biases_big_vs_usable(self):
        green_i = run_workload("w3schools", "greenweb", I, "full")
        green_u = run_workload("w3schools", "greenweb", U, "full")
        big_i = sum(v for c, v in green_i.active_config_residency.items() if c.cluster == "big")
        big_u = sum(v for c, v in green_u.active_config_residency.items() if c.cluster == "big")
        assert big_i > big_u

    def test_msn_profiling_causes_single_violations(self):
        """Sec. 7.2: MSN's minimum-frequency profiling run violates."""
        green = run_workload("msn", "greenweb", I, "micro")
        perf = run_workload("msn", "perf", I, "micro")
        assert green.mean_violation_pct > perf.mean_violation_pct

    def test_continuous_violations_amortized(self):
        """Sec. 7.2: continuous events amortize profiling overhead."""
        green = run_workload("paperjs", "greenweb", I, "micro")
        perf = run_workload("paperjs", "perf", I, "micro")
        assert green.mean_violation_pct - perf.mean_violation_pct < 1.0


class TestSession:
    def test_for_application_runs(self):
        session = Session.for_application("todo", governor="greenweb",
                                          scenario="imperceptible")
        result = session.run_micro_interaction()
        assert result.app == "todo"
        assert result.governor == "greenweb"

    def test_scenario_strings(self):
        # Strings and parsed specs both normalize to the canonical
        # registry spec.
        session = Session.for_application("todo", scenario="usable")
        assert session.scenario.canonical() == "usable"
        assert Session("todo", scenario=SCENARIOS.normalize(U)).scenario == session.scenario

    def test_unknown_app_rejected(self):
        with pytest.raises(EvaluationError):
            Session.for_application("netscape")
        # The constructor validates too, not only the named builder.
        with pytest.raises(EvaluationError, match="unknown application 'nope'"):
            Session("nope")

    def test_unknown_governor_rejected(self):
        with pytest.raises(EvaluationError):
            Session("todo", governor="warp")

    def test_unknown_scenario_rejected(self):
        with pytest.raises(EvaluationError):
            Session("todo", scenario="ludicrous")

    def test_for_page_assembles_stack(self):
        from repro.browser.page import Page
        from repro.web.dom import Document

        page = Page(name="custom", document=Document())
        platform, browser, policy = Session.for_page(page, governor="perf")
        assert browser.page is page
        platform.run_for(1_000)
        assert platform.config == CpuConfig("big", 1800)
