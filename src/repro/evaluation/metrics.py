"""Evaluation metrics (paper Sec. 7).

QoS violation: "the percentage by which a frame latency exceeds the QoS
target.  For example, a frame latency of 200 ms leads to a 100% QoS
violation under a 100 ms QoS target.  For events with a 'continuous'
QoS type, we report the geometric mean of all associated frames."

The geometric mean is computed over ``(1 + v_i)`` factors (violations
are ratios, and many frames have zero violation, which a bare geometric
mean would collapse to zero) — then mapped back to a percentage.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Sequence

from repro.browser.frame_tracker import InputRecord
from repro.core.qos import QoSSpec, QoSType
from repro.errors import EvaluationError
from repro.hardware.dvfs import CpuConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenarios.base import Scenario


def violation_pct(latency_us: float, target_us: float) -> float:
    """Percentage by which a frame latency exceeds the target (>= 0)."""
    if target_us <= 0:
        raise EvaluationError(f"non-positive target {target_us}")
    return max(0.0, (latency_us - target_us) / target_us * 100.0)


def geo_mean_violation_pct(latencies_us: Sequence[float], target_us: float) -> float:
    """Geometric-mean violation across a continuous event's frames."""
    if not latencies_us:
        return 0.0
    log_sum = 0.0
    for latency in latencies_us:
        log_sum += math.log1p(violation_pct(latency, target_us) / 100.0)
    return (math.exp(log_sum / len(latencies_us)) - 1.0) * 100.0


def event_violation_pct(
    record: InputRecord, spec: QoSSpec, scenario: "Scenario"
) -> Optional[float]:
    """The QoS violation of one input event under its spec.

    ``scenario`` is the session's live :mod:`repro.scenarios` object;
    the operative target is sampled at the event's *dispatch* time —
    the target the user held the interaction to when they issued it —
    so accounting does not depend on when metrics are collected.

    Returns None for events that produced no frames (nothing to judge).
    """
    if record.frame_count == 0:
        return None
    target_us = scenario.operative_target_ms(spec.target, at_us=record.msg.start_us) * 1_000.0
    if spec.qos_type is QoSType.SINGLE:
        return violation_pct(float(record.first_frame_latency_us), target_us)
    return geo_mean_violation_pct([float(l) for l in record.frame_latencies_us], target_us)


def mean_violation_pct(violations: Sequence[Optional[float]]) -> float:
    """Mean over the events that had something to judge (0 if none)."""
    values = [v for v in violations if v is not None]
    return sum(values) / len(values) if values else 0.0


def cluster_residency(residency: dict[CpuConfig, float]) -> dict[str, float]:
    """Collapse a config residency into per-cluster fractions."""
    out: dict[str, float] = {}
    for config, fraction in residency.items():
        out[config.cluster] = out.get(config.cluster, 0.0) + fraction
    return out


def switching_per_frame_pct(
    freq_switches: int, migrations: int, opportunities: int
) -> tuple[float, float]:
    """Fig. 12's metric: configuration switches per scheduling
    opportunity (we count each input event and each produced frame as
    one opportunity, since the runtime takes a configuration decision
    at both), split into frequency changes and core migrations
    (percent)."""
    if opportunities <= 0:
        return (0.0, 0.0)
    return (
        100.0 * freq_switches / opportunities,
        100.0 * migrations / opportunities,
    )
