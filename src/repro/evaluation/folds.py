"""Streaming trace consumers ("folds").

A fold subscribes to a :class:`~repro.sim.tracing.TraceLog` and
accumulates a metric *while the run executes*, so the evaluation runner
and fleet workers no longer need the full trace retained in memory:
with a gated, non-retaining log the per-session footprint is constant
no matter how long the session runs.

Folds are the only metric path: configuration residency (Figs. 11 and
the target sweep), frame-timeline statistics and prediction accuracy
exist only here.  Every fold gives the same answer attached live or
:meth:`~TraceFold.replay`-ed over a retained log (the post-hoc path),
which is what keeps figure and fleet-aggregate JSON byte-identical
across trace levels (asserted by tests).  Each fold declares the trace
categories it consumes in ``categories``; a gated log's allowlist must
cover the union of its attached folds' categories (see
:func:`gated_categories_for`).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.browser.vsync import VSYNC_PERIOD_US
from repro.errors import EvaluationError
from repro.evaluation.analysis import FrameTimelineStats, PredictionAccuracy, percentile
from repro.hardware.dvfs import CpuConfig
from repro.sim.tracing import TraceLog, TraceRecord


class TraceFold:
    """Base class: a live trace subscriber that folds records into a
    constant-size accumulator."""

    #: trace categories this fold reads; everything else is ignored.
    categories: frozenset[str] = frozenset()

    def attach(self, trace: TraceLog) -> "TraceFold":
        """Subscribe to ``trace`` and return self (for chaining)."""
        trace.subscribe(self.on_record)
        return self

    def on_record(self, record: TraceRecord) -> None:  # pragma: no cover
        raise NotImplementedError

    def replay(self, trace: TraceLog) -> "TraceFold":
        """Fold a *retained* trace after the fact (post-hoc parity path:
        feeding a full log through ``replay`` gives the same state as
        having been attached for the whole run)."""
        for record in trace.records:
            if record.category in self.categories:
                self.on_record(record)
        return self


def gated_categories_for(*folds: TraceFold) -> frozenset[str]:
    """The category allowlist a gated log needs to feed ``folds``."""
    out: frozenset[str] = frozenset()
    for fold in folds:
        out = out | fold.categories
    return out


class ConfigTimelineFold(TraceFold):
    """Collects ``config/applied`` events; answers the Fig. 11
    residency questions without the full trace.

    Memory is O(configuration switches), not O(records).
    """

    categories = frozenset({"config"})

    def __init__(self) -> None:
        self.applied: list[tuple[int, CpuConfig]] = []

    def on_record(self, record: TraceRecord) -> None:
        if record.category == "config" and record.name == "applied":
            self.applied.append(
                (record.time_us, CpuConfig(record["cluster"], record["freq_mhz"]))
            )

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
        interactions would otherwise swamp the distribution)."""
        applied = [(0, initial)] + self.applied
        weights: dict[CpuConfig, float] = {}
        total = 0
        for start, end in windows:
            if end <= start:
                continue
            total += end - start
            # Config in force at window start:
            index = 0
            for i, (t, _cfg) in enumerate(applied):
                if t <= start:
                    index = i
                else:
                    break
            t0 = start
            current = applied[index][1]
            for t, config in applied[index + 1 :]:
                if t >= end:
                    break
                if t > t0:
                    weights[current] = weights.get(current, 0.0) + (t - t0)
                    t0 = t
                current = config
            weights[current] = weights.get(current, 0.0) + (end - t0)
        if total <= 0:
            return {}
        return {config: weight / total for config, weight in weights.items()}


class SwitchingCountsFold(TraceFold):
    """Counts DVFS actions (Fig. 12's numerators) from the stream."""

    categories = frozenset({"dvfs"})

    def __init__(self) -> None:
        self.freq_switches = 0
        self.migrations = 0

    def on_record(self, record: TraceRecord) -> None:
        if record.category != "dvfs":
            return
        if record.name == "freq_switch":
            self.freq_switches += 1
        elif record.name == "migrate":
            self.migrations += 1


class FrameTimelineFold(TraceFold):
    """Accumulates displayed-frame latencies for timeline statistics.

    Memory is O(frames) floats instead of O(records) objects.
    """

    categories = frozenset({"frame"})

    def __init__(self) -> None:
        self.latencies_us: list[float] = []
        self.first_us: Optional[int] = None
        self.last_us: Optional[int] = None

    def on_record(self, record: TraceRecord) -> None:
        if record.category == "frame" and record.name == "displayed":
            self.latencies_us.append(float(record["max_latency_us"]))
            if self.first_us is None:
                self.first_us = record.time_us
            self.last_us = record.time_us

    def stats(self, vsync_period_us: int = VSYNC_PERIOD_US) -> FrameTimelineStats:
        """Timeline statistics over the displayed frames seen so far;
        jank is a latency of at least two ``vsync_period_us``."""
        latencies = self.latencies_us
        if not latencies:
            return FrameTimelineStats(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0)
        span_us = max(self.last_us - self.first_us, 1)
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


class PredictionAccuracyFold(TraceFold):
    """Pairs GreenWeb ``predict`` records with stable-phase ``observe``
    records as they stream by (Sec. 6.2's model, judged)."""

    categories = frozenset({"greenweb"})

    def __init__(self) -> None:
        self._pending: dict[str, float] = {}
        self.errors: list[float] = []
        self.under_predictions = 0

    def on_record(self, record: TraceRecord) -> None:
        if record.category != "greenweb":
            return
        if record.name == "predict":
            self._pending[record["key"]] = float(record["predicted_us"])
        elif record.name == "observe" and record["phase"] == "stable":
            predicted = self._pending.pop(record["key"], None)
            if predicted is None or predicted <= 0:
                return
            observed = float(record["observed_us"])
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
