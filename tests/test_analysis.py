"""Tests for the frame-timeline analysis and trade-off space.

Timeline statistics and prediction accuracy come from the streaming
folds; a fold ``replay``-ed over a retained trace is the post-hoc path.
"""

import pytest
from hypothesis import given, strategies as st

from repro.errors import EvaluationError
from repro.evaluation.analysis import (
    TradeoffPoint,
    fps_over_time,
    pareto_frontier,
    percentile,
    run_tradeoff_space,
)
from repro.evaluation.folds import FrameTimelineFold, PredictionAccuracyFold
from repro.sim.tracing import TraceLog


def timeline_of(trace):
    return FrameTimelineFold().replay(trace).stats()


def accuracy_of(trace):
    return PredictionAccuracyFold().replay(trace).result()


def trace_with_frames(latencies_us, period_us=16_667):
    trace = TraceLog()
    t = 0
    for seq, latency in enumerate(latencies_us, start=1):
        t += period_us
        trace.emit(t, "frame", "displayed", seq=seq, uids=(1,),
                   complexity=1.0, max_latency_us=latency)
    return trace


class TestPercentile:
    def test_basic(self):
        values = [10, 20, 30, 40, 50]
        assert percentile(values, 0.5) == 30
        assert percentile(values, 1.0) == 50
        assert percentile(values, 0.0) == 10  # nearest-rank floor

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            percentile([], 0.5)

    def test_out_of_range_rejected(self):
        with pytest.raises(EvaluationError):
            percentile([1], 1.5)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
    def test_property_bounded_by_extremes(self, values):
        for fraction in (0.5, 0.95, 0.99):
            p = percentile(values, fraction)
            assert min(values) <= p <= max(values)


class TestTimelineStats:
    def test_empty_trace(self):
        stats = timeline_of(TraceLog())
        assert stats.frame_count == 0
        assert stats.jank_rate == 0.0

    def test_smooth_sequence(self):
        trace = trace_with_frames([8_000] * 61)
        stats = timeline_of(trace)
        assert stats.frame_count == 61
        assert stats.latency_p50_us == 8_000
        assert stats.jank_count == 0
        assert stats.mean_fps == pytest.approx(60.0, rel=0.01)

    def test_jank_detection(self):
        # three frames at >= 2 vsync periods
        trace = trace_with_frames([8_000] * 10 + [40_000, 50_000, 34_000])
        stats = timeline_of(trace)
        assert stats.jank_count == 3
        assert stats.latency_max_us == 50_000
        assert 0 < stats.jank_rate < 0.5

    def test_percentiles_ordered(self):
        trace = trace_with_frames(list(range(1_000, 31_000, 1_000)))
        stats = timeline_of(trace)
        assert stats.latency_p50_us <= stats.latency_p95_us <= stats.latency_p99_us
        assert stats.latency_p99_us <= stats.latency_max_us


class TestFpsOverTime:
    def test_buckets(self):
        trace = trace_with_frames([5_000] * 120)  # ~2 s at 60 fps
        series = fps_over_time(trace, bucket_ms=1000)
        assert len(series) >= 2
        # Full buckets run at ~60 fps; the final bucket may be partial.
        assert all(40 <= fps <= 70 for _t, fps in series[:-1])

    def test_empty(self):
        assert fps_over_time(TraceLog()) == []

    def test_invalid_bucket(self):
        with pytest.raises(EvaluationError):
            fps_over_time(TraceLog(), bucket_ms=0)

    def test_sub_microsecond_bucket_rejected(self):
        # 0.4 us truncates to a 0 us bucket: an error, not a division by 0.
        with pytest.raises(EvaluationError, match="below 1 us"):
            fps_over_time(trace_with_frames([5_000] * 3), bucket_ms=0.0004)


class TestParetoFrontier:
    def test_dominated_points_removed(self):
        a = TradeoffPoint("big", 1800, 10.0, 5.0, 0)
        b = TradeoffPoint("big", 800, 20.0, 2.0, 0)
        c = TradeoffPoint("little", 600, 25.0, 3.0, 0)  # dominated by b
        frontier = pareto_frontier([a, b, c])
        assert a in frontier and b in frontier and c not in frontier

    def test_sorted_by_latency(self):
        points = [
            TradeoffPoint("big", 1800, 10.0, 5.0, 0),
            TradeoffPoint("little", 350, 50.0, 1.0, 0),
            TradeoffPoint("big", 800, 20.0, 2.0, 0),
        ]
        frontier = pareto_frontier(points)
        latencies = [p.mean_frame_latency_us for p in frontier]
        assert latencies == sorted(latencies)


class TestTradeoffSpace:
    def test_sweep_covers_all_configs_and_has_shape(self):
        points = run_tradeoff_space("todo")
        assert len(points) == 17
        by_label = {p.label: p for p in points}
        fastest = by_label["big@1800"]
        # Latency extreme at big-max.
        assert fastest.mean_frame_latency_us == min(
            p.mean_frame_latency_us for p in points
        )
        # Energy extreme on the little cluster (not necessarily at the
        # minimum frequency: running slower stretches the active window
        # and pays leakage longer — the race-to-idle effect).
        cheapest = min(points, key=lambda p: p.active_energy_j)
        assert cheapest.cluster == "little"
        # A genuine trade-off space: the frontier has multiple points
        # spanning both clusters (paper Sec. 2).
        frontier = pareto_frontier(points)
        assert len(frontier) >= 3
        assert {p.cluster for p in frontier} == {"big", "little"}

    #: (cluster, MHz, mean frame latency us, active energy J, violation %)
    #: for todo's micro trace, recorded from the hand-built pinned sweep
    #: this function replaced.
    TODO_POINTS = [
        ("little", 350, 61298.666666666664, 0.020486044559999986, 0.0),
        ("little", 400, 58003.833333333336, 0.020062182116399995, 0.0),
        ("little", 450, 49267.333333333336, 0.01927175274240002, 0.0),
        ("little", 500, 43389.666666666664, 0.018876339920999997, 0.0),
        ("little", 550, 43126.666666666664, 0.019128238453199987, 0.0),
        ("little", 600, 42906.666666666664, 0.01946247757499999, 0.0),
        ("big", 800, 19173.0, 0.04740027480000011, 0.0),
        ("big", 900, 19072.0, 0.04903516648055995, 0.0),
        ("big", 1000, 18992.0, 0.051017305444800154, 0.0),
        ("big", 1100, 18927.0, 0.05329152724099514, 0.0),
        ("big", 1200, 18871.0, 0.055812267232800195, 0.0),
        ("big", 1300, 18825.0, 0.05857382075887489, 0.0),
        ("big", 1400, 18784.0, 0.06154266382560001, 0.0),
        ("big", 1500, 18750.0, 0.06472992252637505, 0.0),
        ("big", 1600, 18720.0, 0.06811561220256007, 0.0),
        ("big", 1700, 18694.0, 0.07169806813104015, 0.0),
        ("big", 1800, 18670.0, 0.0754661674079998, 0.0),
    ]

    def test_todo_points_pinned(self):
        points = run_tradeoff_space("todo")
        assert len(points) == len(self.TODO_POINTS)
        for point, (cluster, freq, latency, energy, violation) in zip(
            points, self.TODO_POINTS
        ):
            assert (point.cluster, point.freq_mhz) == (cluster, freq)
            assert point.mean_frame_latency_us == latency
            assert point.mean_violation_pct == violation
            # The pin is a DVFS request at t=0, inside the first active
            # window: up to a 100 us frequency switch from the boot
            # configuration (big@1800), 1.24 uJ at big@800.
            assert 0.0 <= point.active_energy_j - energy <= 1.3e-6

    #: (cluster, MHz, mean frame latency us, violation %) for cnet's
    #: micro trace, the sweep the benchmark records; recorded likewise.
    CNET_POINTS = [
        ("little", 350, 33499.969696969696, 92.41336893407048),
        ("little", 400, 29997.465346534653, 71.2949293932216),
        ("little", 450, 27218.55769230769, 54.25712836541604),
        ("little", 500, 24716.365384615383, 40.16862030539324),
        ("little", 550, 21959.616822429907, 25.4523741079659),
        ("little", 600, 20237.915966386554, 15.85818514160823),
        ("big", 800, 8878.121951219513, 1.3882365005805422),
        ("big", 900, 8060.612440191388, 0.4577338606467844),
        ("big", 1000, 7531.447004608295, 0.09153420074270446),
        ("big", 1100, 7149.833333333333, 0.0),
        ("big", 1200, 6734.846846846847, 0.0),
        ("big", 1300, 6385.0675675675675, 0.0),
        ("big", 1400, 6084.5675675675675, 0.0),
        ("big", 1500, 5824.342342342342, 0.0),
        ("big", 1600, 5596.189189189189, 0.0),
        ("big", 1700, 5394.896396396396, 0.0),
        ("big", 1800, 5216.274774774774, 0.0),
    ]

    def test_cnet_latency_and_violations_pinned(self):
        points = run_tradeoff_space("cnet")
        assert [
            (p.cluster, p.freq_mhz, p.mean_frame_latency_us, p.mean_violation_pct)
            for p in points
        ] == self.CNET_POINTS

    def test_integration_with_run_trace(self):
        # The frame fold works on a real run's retained trace (the
        # runner keeps none, so drive a browser here).
        from repro.browser.engine import Browser
        from repro.hardware.platform import odroid_xu_e
        from repro.workloads.interactions import InteractionDriver
        from repro.workloads.registry import build_app

        bundle = build_app("cnet")
        platform = odroid_xu_e(record_power_intervals=False)
        browser = Browser(platform, bundle.page)
        InteractionDriver(browser).run(bundle.micro_trace)
        stats = timeline_of(platform.trace)
        assert stats.frame_count == browser.stats.frames
        assert stats.latency_p50_us > 0


class TestPredictionAccuracy:
    def test_synthetic_pairs(self):
        trace = TraceLog()
        trace.emit(10, "greenweb", "predict", key="k", predicted_us=10_000.0)
        trace.emit(20, "greenweb", "observe", key="k", phase="stable",
                   observed_us=12_000, target_us=16_600, violated=False)
        trace.emit(30, "greenweb", "predict", key="k", predicted_us=10_000.0)
        trace.emit(40, "greenweb", "observe", key="k", phase="stable",
                   observed_us=9_000, target_us=16_600, violated=False)
        accuracy = accuracy_of(trace)
        assert accuracy.pairs == 2
        assert accuracy.under_predictions == 1
        assert accuracy.mean_abs_rel_error == pytest.approx((0.2 + 0.1) / 2)

    def test_profiling_observations_ignored(self):
        trace = TraceLog()
        trace.emit(10, "greenweb", "observe", key="k", phase="profile-max",
                   observed_us=12_000, target_us=16_600, violated=False)
        assert accuracy_of(trace).pairs == 0

    def test_end_to_end_accuracy_is_reasonable(self):
        """On a steady animation the fitted model tracks reality well."""
        from repro.browser.engine import Browser
        from repro.core.annotations import AnnotationRegistry
        from repro.core.runtime import GreenWebRuntime
        from repro.hardware.platform import odroid_xu_e
        from repro.scenarios import build_live_scenario
        from repro.workloads.interactions import InteractionDriver
        from repro.workloads.registry import build_app

        bundle = build_app("craigslist")  # low-variance scroll frames
        platform = odroid_xu_e(record_power_intervals=False)
        registry = AnnotationRegistry.from_stylesheet(bundle.page.stylesheet)
        runtime = GreenWebRuntime(platform, registry, build_live_scenario("usable", platform))
        browser = Browser(platform, bundle.page, policy=runtime)
        InteractionDriver(browser).schedule(bundle.micro_trace)
        platform.run_for(bundle.micro_trace.duration_us + 4_000_000)
        accuracy = accuracy_of(platform.trace)
        assert accuracy.pairs > 20
        assert accuracy.mean_abs_rel_error < 0.5
