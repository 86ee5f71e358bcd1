"""Streaming session observers ("folds").

A fold is a :class:`~repro.sim.tracing.SessionObserver` that
accumulates one metric *while the run executes*, from the typed hooks
it overrides; ``MobilePlatform.attach``, before the run, subscribes it
to those hooks only.  No fold needs a trace, so the same fold gives the
same answer on a results-only session and on a traced one, and the
per-session footprint stays constant however long the session runs.

Folds are the only metric path: configuration residency (Fig. 11 and
the target sweep), frame-timeline statistics and prediction accuracy
exist only here.
"""

from __future__ import annotations

from typing import Sequence

from repro.browser.frame_tracker import FrameRecord
from repro.browser.vsync import VSYNC_PERIOD_US
from repro.errors import EvaluationError
from repro.evaluation.analysis import FrameTimelineStats, PredictionAccuracy, percentile
from repro.hardware.dvfs import CpuConfig
from repro.sim.tracing import SessionObserver


class ConfigTimelineFold(SessionObserver):
    """Collects applied configurations; answers the Fig. 11 residency
    questions.

    Memory is O(configuration switches).
    """

    def __init__(self) -> None:
        self.applied: list[tuple[int, CpuConfig]] = []

    def config_applied(self, time_us: int, config: CpuConfig) -> None:
        self.applied.append((time_us, config))

    def residency(
        self, start_us: int, end_us: int, initial: CpuConfig
    ) -> dict[CpuConfig, float]:
        """Fraction of wall time spent in each <cluster, frequency>
        configuration over [start_us, end_us] (Fig. 11's distribution);
        ``initial`` is the configuration in force at ``start_us``."""
        if end_us <= start_us:
            raise EvaluationError("empty residency window")
        timeline: list[tuple[int, CpuConfig]] = [(start_us, initial)]
        for time_us, config in self.applied:
            if time_us <= start_us:
                timeline[0] = (start_us, config)
            elif time_us <= end_us:
                timeline.append((time_us, config))
        timeline.append((end_us, timeline[-1][1]))

        residency: dict[CpuConfig, float] = {}
        total = end_us - start_us
        for (t0, config), (t1, _next_config) in zip(timeline, timeline[1:]):
            dt = t1 - t0
            if dt > 0:
                residency[config] = residency.get(config, 0.0) + dt / total
        return residency

    def windowed(
        self, windows: Sequence[tuple[int, int]], initial: CpuConfig
    ) -> dict[CpuConfig, float]:
        """Config residency restricted to the union of time windows —
        the per-interaction view of Fig. 11 (idle gaps between
        interactions would otherwise swamp the distribution).

        Windows must come in time order (non-decreasing starts), as
        ``_ActiveWindowAccountant`` closes them: the config in force is
        found in one forward pass over the switches."""
        applied = [(0, initial)] + self.applied
        count = len(applied)
        weights: dict[CpuConfig, float] = {}
        total = 0
        index = 0  # the last switch at or before the current window start
        for start, end in windows:
            if end <= start:
                continue
            total += end - start
            while index + 1 < count and applied[index + 1][0] <= start:
                index += 1
            t0 = start
            current = applied[index][1]
            i = index + 1
            while i < count:
                t, config = applied[i]
                if t >= end:
                    break
                if t > t0:
                    weights[current] = weights.get(current, 0.0) + (t - t0)
                    t0 = t
                current = config
                i += 1
            weights[current] = weights.get(current, 0.0) + (end - t0)
        if total <= 0:
            return {}
        return {config: weight / total for config, weight in weights.items()}


class FrameTimelineFold(SessionObserver):
    """Accumulates displayed-frame latencies and display times for
    timeline statistics and the FPS series.

    Memory is O(frames).
    """

    def __init__(self) -> None:
        self.latencies_us: list[float] = []
        self.display_times_us: list[int] = []

    def frame_displayed(self, time_us: int, frame: FrameRecord) -> None:
        self.latencies_us.append(float(frame.max_latency_us))
        self.display_times_us.append(time_us)

    def stats(self, vsync_period_us: int = VSYNC_PERIOD_US) -> FrameTimelineStats:
        """Timeline statistics over the displayed frames seen so far;
        jank is a latency of at least two ``vsync_period_us``."""
        latencies = self.latencies_us
        if not latencies:
            return FrameTimelineStats(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0)
        span_us = max(self.display_times_us[-1] - self.display_times_us[0], 1)
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


class PredictionAccuracyFold(SessionObserver):
    """Pairs GreenWeb predictions with stable-phase observations as
    they happen (Sec. 6.2's model, judged)."""

    def __init__(self) -> None:
        self._pending: dict[str, float] = {}
        self.errors: list[float] = []
        self.under_predictions = 0

    def predicted(self, time_us, key, target_ms, config, predicted_us, predicted_energy_j,
                  meets_target, boost):
        self._pending[key] = float(predicted_us)

    def observed(self, time_us, key, phase, observed_us, target_us, violated):
        if phase != "stable":
            return
        predicted = self._pending.pop(key, None)
        if predicted is None or predicted <= 0:
            return
        observed = float(observed_us)
        self.errors.append(abs(observed - predicted) / predicted)
        if observed > predicted:
            self.under_predictions += 1

    def result(self) -> PredictionAccuracy:
        """Summary of the relative errors paired so far: a prediction
        is matched with the first later stable-phase observation for
        its key; profiling observations are not judged."""
        if not self.errors:
            return PredictionAccuracy(0, 0.0, 0.0, 0)
        return PredictionAccuracy(
            pairs=len(self.errors),
            mean_abs_rel_error=sum(self.errors) / len(self.errors),
            p90_abs_rel_error=percentile(self.errors, 0.9),
            under_predictions=self.under_predictions,
        )
