"""Frame-timeline analysis: the statistics browser people actually read.

Beyond the paper's violation metric, this module computes the standard
rendering-performance statistics from a run's trace — latency
percentiles, effective FPS over time, and jank counts (frames that
missed >= 2 VSync deadlines, the "tiny hitches" of Sec. 3.3 that make
per-frame targets necessary) — plus a static-configuration trade-off
sweep that maps the ACMP energy/latency space the paper's Sec. 2
motivates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.browser.vsync import VSYNC_PERIOD_US
from repro.errors import EvaluationError
from repro.sim.tracing import TraceLog


@dataclass(frozen=True)
class FrameTimelineStats:
    """Summary statistics over a run's displayed frames."""

    frame_count: int
    duration_s: float
    latency_p50_us: float
    latency_p95_us: float
    latency_p99_us: float
    latency_max_us: float
    mean_fps: float
    jank_count: int

    @property
    def jank_rate(self) -> float:
        """Fraction of frames that missed >= 2 VSync deadlines."""
        return self.jank_count / self.frame_count if self.frame_count else 0.0


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in [0, 1])."""
    if not values:
        raise EvaluationError("percentile of empty sequence")
    if not 0.0 <= fraction <= 1.0:
        raise EvaluationError(f"fraction out of [0, 1]: {fraction}")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return float(ordered[rank - 1])


def timeline_stats_from_latencies(
    latencies: Sequence[float],
    first_us: int,
    last_us: int,
    vsync_period_us: int = VSYNC_PERIOD_US,
) -> FrameTimelineStats:
    """Shared timeline-statistics computation over displayed-frame
    latencies plus the first/last display timestamps.

    Both :func:`frame_timeline_stats` (post-hoc scan) and the streaming
    :class:`~repro.evaluation.folds.FrameTimelineFold` call this, so
    the two paths agree bit for bit.
    """
    if not latencies:
        return FrameTimelineStats(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0)
    latencies = [float(latency) for latency in latencies]
    span_us = max(last_us - first_us, 1)
    jank = sum(1 for latency in latencies if latency >= 2 * vsync_period_us)
    return FrameTimelineStats(
        frame_count=len(latencies),
        duration_s=span_us / 1e6,
        latency_p50_us=percentile(latencies, 0.50),
        latency_p95_us=percentile(latencies, 0.95),
        latency_p99_us=percentile(latencies, 0.99),
        latency_max_us=max(latencies),
        mean_fps=(len(latencies) - 1) / (span_us / 1e6) if len(latencies) > 1 else 0.0,
        jank_count=jank,
    )


def frame_timeline_stats(
    trace: TraceLog, vsync_period_us: int = VSYNC_PERIOD_US
) -> FrameTimelineStats:
    """Compute timeline statistics from ``frame displayed`` records."""
    frames = trace.filter(category="frame", name="displayed")
    if not frames:
        return FrameTimelineStats(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0)
    return timeline_stats_from_latencies(
        [float(f["max_latency_us"]) for f in frames],
        frames[0].time_us,
        frames[-1].time_us,
        vsync_period_us,
    )


def fps_over_time(
    trace: TraceLog, bucket_ms: float = 1000.0
) -> list[tuple[float, float]]:
    """(bucket start in seconds, frames/s) series from the trace."""
    if bucket_ms <= 0:
        raise EvaluationError(f"non-positive bucket: {bucket_ms}")
    frames = trace.filter(category="frame", name="displayed")
    if not frames:
        return []
    bucket_us = int(bucket_ms * 1000)
    counts: dict[int, int] = {}
    for frame in frames:
        counts[frame.time_us // bucket_us] = counts.get(frame.time_us // bucket_us, 0) + 1
    series = []
    for bucket in range(min(counts), max(counts) + 1):
        series.append((bucket * bucket_us / 1e6, counts.get(bucket, 0) / (bucket_ms / 1000)))
    return series


# ----------------------------------------------------------------------
# Runtime prediction accuracy (Sec. 6.2's model, judged)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PredictionAccuracy:
    """How well the runtime's Eq. 1 model predicted frame latencies."""

    pairs: int
    mean_abs_rel_error: float
    p90_abs_rel_error: float
    under_predictions: int  # observed > predicted (the risky direction)

    @property
    def under_prediction_rate(self) -> float:
        return self.under_predictions / self.pairs if self.pairs else 0.0


def prediction_accuracy(trace: TraceLog) -> PredictionAccuracy:
    """Pair the GreenWeb runtime's ``predict`` records with the next
    ``observe`` record of the same key and summarise the relative error.

    Only stable-phase observations are judged (profiling frames are not
    predictions).  Pairs are formed in time order per key: a prediction
    is matched with the first later observation for its key.
    """
    pending: dict[str, float] = {}
    errors: list[float] = []
    under = 0
    for record in trace.records:
        if record.category != "greenweb":
            continue
        if record.name == "predict":
            pending[record["key"]] = float(record["predicted_us"])
        elif record.name == "observe" and record["phase"] == "stable":
            key = record["key"]
            predicted = pending.pop(key, None)
            if predicted is None or predicted <= 0:
                continue
            observed = float(record["observed_us"])
            errors.append(abs(observed - predicted) / predicted)
            if observed > predicted:
                under += 1
    if not errors:
        return PredictionAccuracy(0, 0.0, 0.0, 0)
    return PredictionAccuracy(
        pairs=len(errors),
        mean_abs_rel_error=sum(errors) / len(errors),
        p90_abs_rel_error=percentile(errors, 0.9),
        under_predictions=under,
    )


# ----------------------------------------------------------------------
# Static-configuration trade-off space (paper Sec. 2 motivation)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TradeoffPoint:
    """One static configuration's (latency, energy) outcome."""

    cluster: str
    freq_mhz: int
    mean_frame_latency_us: float
    active_energy_j: float
    mean_violation_pct: float

    @property
    def label(self) -> str:
        return f"{self.cluster}@{self.freq_mhz}"


def pareto_frontier(points: Sequence[TradeoffPoint]) -> list[TradeoffPoint]:
    """The latency/energy Pareto-optimal subset (both minimised)."""
    frontier = []
    for candidate in points:
        dominated = any(
            other.mean_frame_latency_us <= candidate.mean_frame_latency_us
            and other.active_energy_j <= candidate.active_energy_j
            and (
                other.mean_frame_latency_us < candidate.mean_frame_latency_us
                or other.active_energy_j < candidate.active_energy_j
            )
            for other in points
        )
        if not dominated:
            frontier.append(candidate)
    return sorted(frontier, key=lambda p: p.mean_frame_latency_us)


def run_tradeoff_space(
    app: str = "cnet", seed: int = 0, scenario: str = "imperceptible"
) -> list[TradeoffPoint]:
    """Run ``app``'s micro trace pinned at every static configuration.

    This is the space the GreenWeb runtime navigates: the returned
    points show big-max as the latency extreme, little-min as the
    energy extreme, and the frontier in between (paper Sec. 2: ACMP is
    "long known to provide a wide performance-energy trade-off space").
    Violations are judged under ``scenario`` (a scenario spec), built
    fresh for each pinned run.
    """
    from repro.browser.engine import Browser
    from repro.evaluation.runner import _ActiveWindowAccountant
    from repro.hardware.platform import odroid_xu_e
    from repro.scenarios import build_live_scenario
    from repro.sim.clock import s_to_us
    from repro.workloads.interactions import InteractionDriver
    from repro.workloads.registry import build_app

    points = []
    reference = odroid_xu_e()
    for config in reference.all_configs():
        bundle = build_app(app, seed)
        platform = odroid_xu_e(
            record_power_intervals=False, initial_config=config
        )
        live = build_live_scenario(scenario, platform, seed=seed)
        browser = Browser(platform, bundle.page)  # no-op policy: pinned config
        live.attach(browser)
        accountant = _ActiveWindowAccountant(platform)
        driver = InteractionDriver(browser)
        driver.schedule(bundle.micro_trace)
        platform.run_for(bundle.micro_trace.duration_us + s_to_us(6))
        latencies = browser.tracker.all_frame_latencies_us()
        mean_latency = sum(latencies) / len(latencies) if latencies else float("inf")

        # Violations against the app's annotated targets.
        from repro.core.annotations import AnnotationRegistry
        from repro.evaluation.metrics import event_violation_pct, mean_violation_pct

        registry = AnnotationRegistry.from_stylesheet(bundle.page.stylesheet)
        violations = []
        for scripted, record in zip(
            bundle.micro_trace.sorted_events(), browser.tracker.records
        ):
            target = (
                bundle.page.document.get_element_by_id(scripted.target_id)
                if scripted.target_id
                else bundle.page.document.root
            )
            spec = registry.lookup(target, scripted.event_type)
            violations.append(
                event_violation_pct(record, spec, live) if spec else None
            )
        points.append(
            TradeoffPoint(
                cluster=config.cluster,
                freq_mhz=config.freq_mhz,
                mean_frame_latency_us=mean_latency,
                active_energy_j=accountant.active_energy_j,
                mean_violation_pct=mean_violation_pct(violations),
            )
        )
    return points
