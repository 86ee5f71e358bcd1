"""Frame-timeline analysis: the statistics browser people actually read.

Beyond the paper's violation metric, this module defines the standard
rendering-performance statistics — latency percentiles, effective FPS
over time, and jank counts (frames that missed >= 2 VSync deadlines,
the "tiny hitches" of Sec. 3.3 that make per-frame targets necessary)
— plus a static-configuration trade-off sweep that maps the ACMP
energy/latency space the paper's Sec. 2 motivates.  The timeline and
prediction-accuracy statistics are computed by the streaming folds in
:mod:`repro.evaluation.folds`, attached to a session before it runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.errors import EvaluationError


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


def fps_over_time(
    display_times_us: Sequence[int], bucket_ms: float = 1000.0
) -> list[tuple[float, float]]:
    """(bucket start in seconds, frames/s) series from frame display
    times (``FrameTimelineFold.display_times_us``)."""
    bucket_us = int(bucket_ms * 1000)
    if bucket_us < 1:
        raise EvaluationError(f"bucket below 1 us: {bucket_ms} ms")
    if not display_times_us:
        return []
    counts: dict[int, int] = {}
    for time_us in display_times_us:
        counts[time_us // bucket_us] = counts.get(time_us // bucket_us, 0) + 1
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
    from repro.core.governors import PinnedGovernor
    from repro.evaluation.runner import SessionExecution
    from repro.hardware.platform import odroid_xu_e
    from repro.workloads.registry import build_app

    points = []
    for config in odroid_xu_e().all_configs():
        execution = SessionExecution(
            build_app(app, seed),
            lambda platform, registry, live, config=config: PinnedGovernor(
                platform, config
            ),
            scenario, trace_kind="micro", seed=seed, settle_s=6.0, label=str(config),
        )
        execution.run()
        result = execution.finish()
        latencies = execution.browser.tracker.all_frame_latencies_us()
        points.append(
            TradeoffPoint(
                cluster=config.cluster,
                freq_mhz=config.freq_mhz,
                mean_frame_latency_us=(
                    sum(latencies) / len(latencies) if latencies else float("inf")
                ),
                active_energy_j=result.active_energy_j,
                mean_violation_pct=result.mean_violation_pct,
            )
        )
    return points
