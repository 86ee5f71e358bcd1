"""Trace levels, indexed filters, and streaming metric folds.

The contract under test is the one the fleet relies on: a gated,
non-retaining trace fed through streaming folds produces *byte-identical*
metrics to a full retained trace replayed through the same folds.
"""

import pytest

from repro.errors import EvaluationError, SimulationError
from repro.evaluation.analysis import FrameTimelineStats, PredictionAccuracy
from repro.evaluation.folds import (
    ConfigTimelineFold,
    FrameTimelineFold,
    PredictionAccuracyFold,
    SwitchingCountsFold,
    gated_categories_for,
)
from repro.fleet import Fleet, FleetSpec, parse_mix
from repro.hardware.dvfs import CpuConfig
from repro.hardware.platform import odroid_xu_e
from repro.sim.kernel import Kernel
from repro.sim.tracing import GATED_CATEGORIES, TRACE_LEVELS, TraceLog
from repro.sim.trace_export import to_chrome_trace
from repro.browser.vsync import VsyncSource
from repro.evaluation.runner import SessionExecution, make_policy, run_workload
from repro.workloads.registry import build_app

I = "imperceptible"
BIG = CpuConfig("big", 1800)


# ----------------------------------------------------------------------
# Trace levels and gating
# ----------------------------------------------------------------------
class TestTraceLevels:
    def test_full_retains_everything(self):
        log = TraceLog.for_level("full")
        assert log.enabled and log.retaining and log.categories is None
        log.emit(1, "anything", "goes")
        assert len(log) == 1

    def test_gated_gates_and_does_not_retain(self):
        log = TraceLog.for_level("gated")
        assert log.enabled and not log.retaining
        assert log.categories == GATED_CATEGORIES
        log.emit(1, "config", "applied", cluster="big", freq_mhz=800)
        log.emit(2, "frame", "displayed", max_latency_us=10)
        assert len(log) == 0  # nothing retained, even allowlisted records

    def test_gated_delivers_allowlisted_records_to_subscribers(self):
        log = TraceLog.for_level("gated")
        seen = []
        log.subscribe(lambda record: seen.append((record.category, record.name)))
        log.emit(1, "config", "applied", cluster="big", freq_mhz=800)
        log.emit(2, "dvfs", "migrate")  # not in GATED_CATEGORIES
        log.emit(3, "input", "click", uid=1)
        assert seen == [("config", "applied"), ("input", "click")]

    def test_gated_custom_allowlist(self):
        log = TraceLog.for_level("gated", categories={"dvfs"})
        assert log.wants("dvfs")
        assert not log.wants("config")

    def test_off_records_nothing(self):
        log = TraceLog.for_level("off")
        seen = []
        log.subscribe(seen.append)
        log.emit(1, "config", "applied")
        assert len(log) == 0 and seen == []

    def test_unknown_level_rejected(self):
        with pytest.raises(SimulationError):
            TraceLog.for_level("verbose")

    @pytest.mark.parametrize("level", TRACE_LEVELS)
    def test_every_declared_level_constructs(self, level):
        TraceLog.for_level(level)

    def test_wants_mirrors_emit(self):
        for log in (TraceLog.for_level(level) for level in TRACE_LEVELS):
            for category in ("config", "dvfs", "frame", "greenweb"):
                before = len(log)
                seen = []
                log.subscribe(seen.append)
                log.emit(0, category, "x")
                recorded = len(log) > before or bool(seen)
                assert log.wants(category) == recorded


class TestIndexedFilters:
    def make_log(self):
        log = TraceLog()
        for t in range(20):
            log.emit(t, "dvfs" if t % 2 else "frame",
                     "migrate" if t % 4 == 1 else "displayed", seq=t)
        return log

    def test_filter_matches_linear_scan(self):
        log = self.make_log()
        for category, name in [("dvfs", None), (None, "migrate"),
                               ("dvfs", "migrate"), (None, None),
                               ("frame", "displayed"), ("dvfs", "displayed")]:
            expected = [
                r for r in log.records
                if (category is None or r.category == category)
                and (name is None or r.name == name)
            ]
            assert log.filter(category=category, name=name) == expected

    def test_filter_time_window_applies_to_indexed_path(self):
        log = self.make_log()
        got = log.filter(category="dvfs", since_us=5, until_us=15)
        assert got == [r for r in log.records
                       if r.category == "dvfs" and 5 <= r.time_us <= 15]

    def test_count_matches_filter(self):
        log = self.make_log()
        for category, name in [("dvfs", None), ("dvfs", "migrate"),
                               (None, "displayed"), (None, None)]:
            assert log.count(category=category, name=name) == len(
                log.filter(category=category, name=name)
            )

    def test_count_unknown_key_is_zero(self):
        log = self.make_log()
        assert log.count(category="nope") == 0
        assert log.count(category="dvfs", name="nope") == 0

    def test_clear_resets_indices(self):
        log = self.make_log()
        log.clear()
        assert len(log) == 0
        assert log.filter(category="dvfs") == []
        assert log.count(category="dvfs", name="migrate") == 0
        log.emit(1, "dvfs", "migrate")
        assert log.count(category="dvfs", name="migrate") == 1


# ----------------------------------------------------------------------
# Streaming folds: live vs replayed, and pinned outputs on a real run
# ----------------------------------------------------------------------
class TestFoldParity:
    def run_traced(self, governor="greenweb", *live_folds):
        """One real session with a retained trace to scan and replay;
        ``live_folds`` are attached to it before it runs."""
        execution = SessionExecution(
            build_app("todo", seed=0), governor, I, "micro", 0, 2.0, "full",
            lambda platform, registry, scenario: make_policy(
                governor, platform, registry, scenario
            ),
        )
        for fold in live_folds:
            fold.attach(execution.platform.trace)
        execution.run()
        return execution.platform.trace

    def test_config_fold_attached_matches_scan(self):
        trace = TraceLog()
        fold = ConfigTimelineFold().attach(trace)
        trace.emit(250, "config", "applied", cluster="little", freq_mhz=600)
        trace.emit(750, "config", "applied", cluster="big", freq_mhz=800)
        trace.emit(800, "config", "other", cluster="big", freq_mhz=800)
        replayed = ConfigTimelineFold().replay(trace)
        assert fold.applied == replayed.applied == [
            (250, CpuConfig("little", 600)), (750, CpuConfig("big", 800))
        ]
        assert fold.residency(0, 1000, BIG) == replayed.residency(0, 1000, BIG)
        windows = [(0, 100), (600, 900)]
        assert fold.windowed(windows, BIG) == replayed.windowed(windows, BIG)

    def test_replay_equals_attach(self):
        attached = ConfigTimelineFold()
        trace = self.run_traced("greenweb", attached)
        end = trace.records[-1].time_us if trace.records else 1
        replayed = ConfigTimelineFold().replay(trace)
        assert attached.applied and replayed.applied == attached.applied
        assert replayed.residency(0, end, BIG) == attached.residency(0, end, BIG)

    # Both pins were recorded from the post-hoc trace scans the folds
    # replaced (todo micro, GreenWeb, imperceptible, seed 0).
    def test_frame_fold_pinned_on_real_trace(self):
        live = FrameTimelineFold()
        trace = self.run_traced("greenweb", live)
        assert FrameTimelineFold().replay(trace).stats() == live.stats() == (
            FrameTimelineStats(
                frame_count=6,
                duration_s=10.037273,
                latency_p50_us=55763.0,
                latency_p95_us=72470.0,
                latency_p99_us=72470.0,
                latency_max_us=72470.0,
                mean_fps=0.49814327058753904,
                jank_count=4,
            )
        )

    def test_prediction_fold_pinned_on_real_trace(self):
        live = PredictionAccuracyFold()
        trace = self.run_traced("greenweb", live)
        assert PredictionAccuracyFold().replay(trace).result() == live.result() == (
            PredictionAccuracy(
                pairs=4,
                mean_abs_rel_error=0.8625524849622481,
                p90_abs_rel_error=2.2025730300791464,
                under_predictions=4,
            )
        )

    def test_prediction_fold_empty(self):
        result = PredictionAccuracyFold().result()
        assert result.pairs == 0 and result.mean_abs_rel_error == 0.0

    def test_switching_fold_counts(self):
        trace = self.run_traced()
        fold = SwitchingCountsFold().replay(trace)
        assert fold.freq_switches == trace.count(category="dvfs", name="freq_switch")
        assert fold.migrations == trace.count(category="dvfs", name="migrate")
        assert fold.freq_switches + fold.migrations > 0

    def test_gated_categories_for_union(self):
        union = gated_categories_for(
            ConfigTimelineFold(), FrameTimelineFold(), SwitchingCountsFold()
        )
        assert union == frozenset({"config", "frame", "dvfs"})

    def test_gated_log_feeds_folds_identically(self):
        """A fold attached to a gated log accumulates exactly what an
        identical emit stream gives a full log."""
        emits = [
            (100, "config", "applied", {"cluster": "little", "freq_mhz": 600}),
            (150, "frame", "displayed", {"max_latency_us": 20_000}),
            (300, "config", "applied", {"cluster": "big", "freq_mhz": 800}),
        ]
        full = TraceLog.for_level("full")
        gated = TraceLog.for_level("gated")
        fold_full = ConfigTimelineFold().attach(full)
        fold_gated = ConfigTimelineFold().attach(gated)
        for t, category, name, data in emits:
            full.emit(t, category, name, **data)
            gated.emit(t, category, name, **data)
        assert fold_gated.applied == fold_full.applied
        assert fold_gated.residency(0, 400, BIG) == fold_full.residency(0, 400, BIG)


# ----------------------------------------------------------------------
# Trace levels through the runner and the fleet
# ----------------------------------------------------------------------
class TestRunnerTraceLevels:
    def test_full_and_gated_results_identical(self):
        from repro.evaluation.runner import run_result_to_dict

        full = run_workload("todo", "greenweb", I, "micro", seed=3)
        gated = run_workload("todo", "greenweb", I, "micro", seed=3,
                             trace_level="gated")
        assert run_result_to_dict(full) == run_result_to_dict(gated)

    def test_off_still_runs_but_zeroes_trace_metrics(self):
        result = run_workload("todo", "perf", I, "micro", trace_level="off")
        assert result.energy_j > 0  # meter-derived, not trace-derived
        assert result.active_energy_j == 0.0
        assert result.config_residency == {BIG: 1.0}

    def test_unknown_trace_level_rejected(self):
        with pytest.raises(SimulationError):
            run_workload("todo", "perf", I, "micro", trace_level="loud")


class TestFleetTraceLevels:
    MIX = parse_mix("todo:greenweb:imperceptible:micro,cnet:perf:imperceptible:micro")

    def test_gated_and_full_fleets_byte_identical(self):
        base = dict(sessions=4, seed=7, mix=self.MIX, shard_size=2, settle_s=2.0)
        gated = Fleet(FleetSpec(**base, trace_level="gated"), jobs=1).run()
        full = Fleet(FleetSpec(**base, trace_level="full"), jobs=1).run()
        assert gated.ok and full.ok
        assert gated.to_json() == full.to_json()

    def test_invalid_trace_level_rejected(self):
        with pytest.raises(EvaluationError):
            FleetSpec(sessions=4, seed=7, mix=self.MIX, trace_level="loud")

    def test_to_job_carries_trace_level(self):
        spec = FleetSpec(sessions=2, seed=0, mix=self.MIX)
        (shard,) = spec.shards()[:1]
        job = shard.sessions[0].to_job(spec.settle_s, spec.trace_level)
        assert job["trace_level"] == "gated"


class TestTraceExportGating:
    def test_gated_log_refuses_export(self):
        log = TraceLog.for_level("gated")
        log.emit(1, "config", "applied", cluster="big", freq_mhz=800)
        with pytest.raises(SimulationError):
            to_chrome_trace(log)

    def test_disabled_log_exports_empty(self):
        events = to_chrome_trace(TraceLog.for_level("off"))
        assert all(event["ph"] == "M" for event in events)


# ----------------------------------------------------------------------
# Demand-driven VSync (the idle-tick optimisation must keep the grid)
# ----------------------------------------------------------------------
class TestDemandDrivenVsync:
    PERIOD = 10_000

    def test_idle_tick_does_not_rearm(self):
        kernel = Kernel()
        ticks = []
        source = VsyncSource(kernel, ticks.append, self.PERIOD, demand=lambda: False)
        source.start()
        kernel.run_until(100_000)
        assert ticks == [self.PERIOD]  # one tick, then the chain stops
        assert not source.armed

    def test_request_rearms_on_the_original_grid(self):
        kernel = Kernel()
        ticks = []
        demanded = []
        source = VsyncSource(
            kernel, ticks.append, self.PERIOD, demand=lambda: bool(demanded)
        )
        source.start()
        kernel.run_until(30_000)  # idle: single tick at 10 ms
        # Demand appears off-grid at t=33.3 ms; the next tick must land
        # on the 10 ms grid (40 ms), exactly where the continuous source
        # would have fired.
        kernel.schedule_at(33_333, lambda: (demanded.append(1), source.request()))
        kernel.run_until(45_000)
        assert ticks == [self.PERIOD, 40_000]

    def test_request_is_noop_while_armed_and_when_stopped(self):
        kernel = Kernel()
        ticks = []
        source = VsyncSource(kernel, ticks.append, self.PERIOD, demand=lambda: True)
        source.start()
        source.request()  # already armed: no double tick
        kernel.run_until(self.PERIOD)
        assert ticks == [self.PERIOD]
        source.stop()
        source.request()
        assert not source.armed

    def test_continuous_mode_unchanged(self):
        kernel = Kernel()
        ticks = []
        source = VsyncSource(kernel, ticks.append, self.PERIOD)
        source.start()
        kernel.run_until(55_000)
        assert ticks == [10_000, 20_000, 30_000, 40_000, 50_000]

    def test_handler_created_demand_rearms(self):
        """Demand created *during* an idle tick's handler still re-arms."""
        kernel = Kernel()
        ticks = []
        demanded = []

        def on_tick(now):
            ticks.append(now)
            if len(ticks) == 1:
                demanded.append(1)  # handler creates work on an idle tick

        source = VsyncSource(
            kernel, on_tick, self.PERIOD, demand=lambda: bool(demanded)
        )
        source.start()
        kernel.run_until(25_000)
        assert ticks == [10_000, 20_000]

    def test_browser_skips_idle_ticks_without_changing_results(self):
        """End-to-end: the engine's demand predicate skips idle VSyncs
        but frame counts and energy are untouched (vs the checked-in
        golden behaviour exercised across the rest of the suite)."""
        result = run_workload("todo", "perf", I, "micro", settle_s=2.0)
        # 2 s of settle alone is ~120 potential VSyncs; the demand
        # predicate must have elided most of them.
        potential = int(result.duration_s * 60)
        from repro.browser.engine import Browser
        from repro.workloads.registry import build_app

        bundle = build_app("todo", seed=0)
        platform = odroid_xu_e(record_power_intervals=False)
        browser = Browser(platform, bundle.page)
        from repro.workloads.interactions import InteractionDriver
        from repro.sim.clock import s_to_us

        InteractionDriver(browser).schedule(bundle.micro_trace)
        platform.run_for(bundle.micro_trace.duration_us + s_to_us(2.0))
        assert browser.vsync.tick_count < potential * 0.75
        assert browser.stats.frames == result.frames
