"""The trace log, indexed filters, and streaming metric folds.

The contract under test is the one the fleet relies on: folds observing
a session with no trace (the ``gated`` leg) produce *byte-identical*
metrics to the same session with a trace attached (the ``full`` leg),
and a results-only session builds no trace records at all.
"""

from collections import Counter

import pytest

from repro.evaluation.analysis import FrameTimelineStats, PredictionAccuracy
from repro.evaluation.folds import (
    ConfigTimelineFold,
    FrameTimelineFold,
    PredictionAccuracyFold,
)
from repro.fleet import Fleet, FleetAggregate, FleetSpec, parse_mix
from repro.hardware.dvfs import CpuConfig
from repro.hardware.platform import odroid_xu_e
from repro.sim import tracing
from repro.sim.kernel import Kernel
from repro.sim.tracing import SessionObserver, TraceLog
from repro.sim.trace_export import to_chrome_trace
from repro.browser.vsync import VsyncSource
from repro.evaluation import runner
from repro.evaluation.runner import (
    SessionExecution,
    run_result_to_dict,
    run_workload,
)
from repro.workloads.registry import build_app
from tests.conftest import run_cell

I = "imperceptible"
BIG = CpuConfig("big", 1800)


def session(traced, governor="greenweb", *observers, app="todo", scenario=I):
    """One micro session of ``app`` (seed 0, 2 s settle), run with
    ``observers`` attached; ``traced`` attaches a trace."""
    execution = SessionExecution(
        build_app(app, seed=0), governor, scenario, trace_kind="micro", settle_s=2.0,
        trace=traced,
    )
    for observer in observers:
        execution.platform.attach(observer)
    execution.run()
    return execution


class HookCounter(SessionObserver):
    """Counts every typed hook call by the (category, name) of the
    record the trace builds from it; dispatches, which the trace names
    by event type, count as ``("input", "dispatch")``."""

    def __init__(self):
        self.counts = Counter()

    def _count(self, key):
        self.counts[key] += 1

    def input_dispatched(self, time_us, msg):
        self._count(("input", "dispatch"))

    def input_completed(self, time_us, record):
        self._count(("input", "complete"))

    def config_applied(self, time_us, config):
        self._count(("config", "applied"))

    def frame_displayed(self, time_us, frame):
        self._count(("frame", "displayed"))

    def predicted(self, time_us, key, *facts):
        self._count(("greenweb", "predict"))

    def observed(self, time_us, key, *facts):
        self._count(("greenweb", "observe"))


# ----------------------------------------------------------------------
# The trace as an observer; sessions with and without one
# ----------------------------------------------------------------------
class TestTraceLevels:
    def test_full_retains_everything(self):
        log = TraceLog()
        log.emit(1, "anything", "goes")
        log.config_applied(2, CpuConfig("little", 600))
        assert len(log) == 2
        assert log.filter(category="config", name="applied")[0].data == {
            "cluster": "little", "freq_mhz": 600
        }

    @pytest.mark.parametrize("level", ("full", "gated"))
    def test_every_declared_level_constructs(self, level):
        """Both legs build a session; only the full leg has a trace, and
        it observes each fact hook first, ahead of the runner's fold and
        accountant."""
        execution = SessionExecution(
            build_app("todo", seed=0), "perf", I, trace_kind="micro", settle_s=1.0,
            trace=level == "full",
        )
        trace, hooks = execution.platform.trace, execution.platform._hooks
        fold, accountant = execution._config_fold, execution._accountant
        leading = [trace] if level == "full" else []
        assert (trace is not None) == (level == "full")
        assert hooks["config_applied"] == leading + [fold]
        assert hooks["input_dispatched"] == leading + [accountant]
        assert hooks["input_completed"] == leading + [accountant]
        for hook in ("frame_displayed", "predicted", "observed"):
            assert hooks[hook] == leading, hook
        assert hooks["busy_changed"] == []

    def test_gated_gates_and_does_not_retain(self, monkeypatch):
        """A results-only session (the gated leg) has no trace and
        constructs not one record."""
        built = []
        original_init = tracing.TraceRecord.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args[1])
            original_init(self, *args, **kwargs)

        platforms = []
        original_platform = runner.odroid_xu_e

        def recording_platform(**kwargs):
            platforms.append(original_platform(**kwargs))
            return platforms[-1]

        monkeypatch.setattr(tracing.TraceRecord, "__init__", counting_init)
        monkeypatch.setattr(runner, "odroid_xu_e", recording_platform)
        result = run_workload("bbc", "ondemand", "bgload", "micro", seed=1)
        assert result.freq_switches + result.migrations > 1000
        assert len(platforms) == 1 and platforms[0].trace is None
        assert built == []

    def test_untraced_session_feeds_every_observer(self):
        """Without a trace every typed hook still fires, exactly as
        often as the traced twin records its fact."""
        untraced, traced = HookCounter(), HookCounter()
        session(False, "greenweb", untraced)
        trace = session(True, "greenweb", traced).platform.trace
        recorded = Counter(
            ("input", "dispatch")
            if record.category == "input" and record.name != "complete"
            else (record.category, record.name)
            for record in trace
        )
        assert len(untraced.counts) == 6
        assert untraced.counts == traced.counts == {
            key: recorded[key] for key in untraced.counts
        }


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
# Streaming folds: attached live, and pinned outputs on a real run
# ----------------------------------------------------------------------
class TestFoldParity:
    def test_config_fold_attached_matches_scan(self):
        """The live fold sees exactly the switches the trace records."""
        fold = ConfigTimelineFold()
        trace = session(True, "greenweb", fold).platform.trace
        scanned = [
            (record.time_us, CpuConfig(record["cluster"], record["freq_mhz"]))
            for record in trace.filter(category="config", name="applied")
        ]
        assert fold.applied and fold.applied == scanned
        end = trace.records[-1].time_us
        assert sum(fold.residency(0, end, BIG).values()) == 1.0

    # Both pins were recorded from the post-hoc trace scans the folds
    # replaced (todo micro, GreenWeb, imperceptible, seed 0).
    def test_frame_fold_pinned_on_real_trace(self):
        live = FrameTimelineFold()
        session(True, "greenweb", live)
        assert live.stats() == FrameTimelineStats(
            frame_count=6,
            duration_s=10.037273,
            latency_p50_us=55763.0,
            latency_p95_us=72470.0,
            latency_p99_us=72470.0,
            latency_max_us=72470.0,
            mean_fps=0.49814327058753904,
            jank_count=4,
        )

    def test_prediction_fold_pinned_on_real_trace(self):
        live = PredictionAccuracyFold()
        session(True, "greenweb", live)
        assert live.result() == PredictionAccuracy(
            pairs=4,
            mean_abs_rel_error=0.8625524849622481,
            p90_abs_rel_error=2.2025730300791464,
            under_predictions=4,
        )

    def test_prediction_fold_empty(self):
        result = PredictionAccuracyFold().result()
        assert result.pairs == 0 and result.mean_abs_rel_error == 0.0

    def test_gated_log_feeds_folds_identically(self):
        """Folds on a session with no trace (the gated leg) accumulate
        exactly what they do on its traced twin, under a dynamic
        scenario too."""
        for scenario in (I, "thermal(cap_mhz=1100,trip_ms=50,hot_load=0.2)"):
            legs = {}
            for traced in (True, False):
                folds = (ConfigTimelineFold(), FrameTimelineFold(), PredictionAccuracyFold())
                session(traced, "greenweb", *folds, app="cnet", scenario=scenario)
                legs[traced] = folds
            full, gated = legs[True], legs[False]
            assert gated[0].applied == full[0].applied
            assert gated[1].stats() == full[1].stats()
            assert gated[2].result() == full[2].result()
            assert full[1].stats().frame_count > 0 and full[2].result().pairs > 0


# ----------------------------------------------------------------------
# Both legs through the session builder and the fleet
# ----------------------------------------------------------------------
def run_full(app, governor, seed, settle_s=4.0):
    """One micro session with a trace attached (the full leg), as a
    plain dict — the traced twin of a results-only ``run_workload``
    cell."""
    job = {"app": app, "governor": governor, "trace_kind": "micro",
           "seed": seed, "settle_s": settle_s}
    return run_cell(job, "full")


class TestRunnerTraceLevels:
    def test_full_and_gated_results_identical(self):
        gated = run_workload("todo", "greenweb", I, "micro", seed=3)
        assert run_full("todo", "greenweb", 3) == run_result_to_dict(gated)


class TestFleetTraceLevels:
    MIX = parse_mix("todo:greenweb:imperceptible:micro,cnet:perf:imperceptible:micro")

    def test_gated_and_full_fleets_byte_identical(self):
        """A fleet's aggregate equals the one folded from its sessions
        re-run one by one with traces attached."""
        spec = FleetSpec(sessions=4, seed=7, mix=self.MIX, shard_size=2, settle_s=2.0)
        gated = Fleet(spec, jobs=1).run()
        assert gated.ok
        full = FleetAggregate()
        for session_spec in spec.expand():
            full.add_run(run_full(
                session_spec.app, session_spec.governor, session_spec.seed, 2.0
            ))
        assert gated.aggregate.to_dict() == full.to_dict()


class TestTraceExportGating:
    def test_empty_full_log_exports_only_metadata(self):
        events = to_chrome_trace(TraceLog())
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
        # Under constant demand the source ticks every period.
        kernel = Kernel()
        ticks = []
        source = VsyncSource(kernel, ticks.append, self.PERIOD, demand=lambda: True)
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
