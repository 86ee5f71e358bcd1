"""Trace levels, indexed filters, and streaming metric folds.

The contract under test is the one the fleet relies on: a gated,
non-retaining trace fed through streaming folds produces *byte-identical*
metrics to a full retained trace replayed through the same folds.
"""

import pytest

from repro.errors import SimulationError
from repro.evaluation.analysis import FrameTimelineStats, PredictionAccuracy
from repro.evaluation.folds import (
    ConfigTimelineFold,
    FrameTimelineFold,
    PredictionAccuracyFold,
)
from repro.fleet import Fleet, FleetAggregate, FleetSpec, parse_mix
from repro.hardware.dvfs import CpuConfig
from repro.hardware.platform import odroid_xu_e
from repro.policies import POLICIES
from repro.sim.kernel import Kernel
from repro.sim.tracing import GATED_CATEGORIES, TRACE_LEVELS, TraceLog
from repro.sim.trace_export import to_chrome_trace
from repro.browser.vsync import VsyncSource
from repro.evaluation.runner import (
    SessionExecution,
    run_result_to_dict,
    run_workload,
)
from repro.workloads.registry import build_app
from tests.conftest import run_cell

I = "imperceptible"
BIG = CpuConfig("big", 1800)


# ----------------------------------------------------------------------
# Trace levels and gating
# ----------------------------------------------------------------------
class TestTraceLevels:
    def test_full_retains_everything(self):
        log = TraceLog("full")
        assert log.retaining
        assert all(log.wants(category) for category in ("dvfs", "frame", "anything"))
        log.emit(1, "anything", "goes")
        assert len(log) == 1

    def test_gated_gates_and_does_not_retain(self):
        log = TraceLog("gated")
        assert not log.retaining
        assert {c for c in ("input", "config", "dvfs", "frame") if log.wants(c)} == (
            GATED_CATEGORIES
        )
        log.emit(1, "config", "applied", cluster="big", freq_mhz=800)
        log.emit(2, "frame", "displayed", max_latency_us=10)
        assert len(log) == 0  # nothing retained, even allowlisted records

    def test_gated_delivers_allowlisted_records_to_subscribers(self):
        log = TraceLog("gated")
        seen = []
        log.subscribe(lambda record: seen.append((record.category, record.name)))
        log.emit(1, "config", "applied", cluster="big", freq_mhz=800)
        log.emit(2, "dvfs", "migrate")  # not in GATED_CATEGORIES
        log.emit(3, "input", "click", uid=1)
        assert seen == [("config", "applied"), ("input", "click")]

    def test_unknown_level_rejected(self):
        for level in ("verbose", "off", ""):
            with pytest.raises(SimulationError, match="unknown trace level"):
                TraceLog(level)

    @pytest.mark.parametrize("level", TRACE_LEVELS)
    def test_every_declared_level_constructs(self, level):
        TraceLog(level)

    def test_wants_mirrors_emit(self):
        for log in (TraceLog(level) for level in TRACE_LEVELS):
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
            lambda platform, registry, scenario: POLICIES.build(
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

    def test_gated_log_feeds_folds_identically(self):
        """A fold attached to a gated log accumulates exactly what an
        identical emit stream gives a full log."""
        emits = [
            (100, "config", "applied", {"cluster": "little", "freq_mhz": 600}),
            (150, "frame", "displayed", {"max_latency_us": 20_000}),
            (300, "config", "applied", {"cluster": "big", "freq_mhz": 800}),
        ]
        full = TraceLog("full")
        gated = TraceLog("gated")
        fold_full = ConfigTimelineFold().attach(full)
        fold_gated = ConfigTimelineFold().attach(gated)
        for t, category, name, data in emits:
            full.emit(t, category, name, **data)
            gated.emit(t, category, name, **data)
        assert fold_gated.applied == fold_full.applied
        assert fold_gated.residency(0, 400, BIG) == fold_full.residency(0, 400, BIG)


# ----------------------------------------------------------------------
# Trace levels through the session builder and the fleet
# ----------------------------------------------------------------------
def run_full(app, governor, seed, settle_s=4.0):
    """One micro session with a retained ("full") trace, as a plain
    dict — the full-level twin of a gated ``run_workload`` cell."""
    job = {"app": app, "governor": governor, "trace_kind": "micro",
           "seed": seed, "settle_s": settle_s}
    return run_cell(job, "full")


class TestRunnerTraceLevels:
    def test_full_and_gated_results_identical(self):
        gated = run_workload("todo", "greenweb", I, "micro", seed=3)
        assert run_full("todo", "greenweb", 3) == run_result_to_dict(gated)

    def test_unknown_trace_level_rejected(self):
        for level in ("off", "loud"):
            with pytest.raises(SimulationError, match="unknown trace level"):
                SessionExecution(
                    build_app("todo", seed=0), "perf", I, "micro", 0, 4.0, level,
                    lambda platform, registry, scenario: POLICIES.build(
                        "perf", platform, registry, scenario
                    ),
                )


class TestFleetTraceLevels:
    MIX = parse_mix("todo:greenweb:imperceptible:micro,cnet:perf:imperceptible:micro")

    def test_gated_and_full_fleets_byte_identical(self):
        """A fleet's aggregate equals the one folded from its sessions
        re-run one by one with retained traces."""
        spec = FleetSpec(sessions=4, seed=7, mix=self.MIX, shard_size=2, settle_s=2.0)
        gated = Fleet(spec, jobs=1).run()
        assert gated.ok
        full = FleetAggregate()
        for session in spec.expand():
            full.add_run(run_full(session.app, session.governor, session.seed, 2.0))
        assert gated.aggregate.to_dict() == full.to_dict()


class TestTraceExportGating:
    def test_gated_log_refuses_export(self):
        log = TraceLog("gated")
        log.emit(1, "config", "applied", cluster="big", freq_mhz=800)
        with pytest.raises(SimulationError):
            to_chrome_trace(log)

    def test_empty_full_log_exports_only_metadata(self):
        events = to_chrome_trace(TraceLog("full"))
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
        platform = odroid_xu_e()
        browser = Browser(platform, bundle.page)
        from repro.workloads.interactions import InteractionDriver
        from repro.sim.clock import s_to_us

        InteractionDriver(browser).schedule(bundle.micro_trace)
        platform.run_for(bundle.micro_trace.duration_us + s_to_us(2.0))
        assert browser.vsync.tick_count < potential * 0.75
        assert browser.stats.frames == result.frames
