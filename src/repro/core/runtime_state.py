"""Shared state types for the GreenWeb runtime and its components.

Split out of :mod:`repro.core.runtime` so the components
(:mod:`repro.core.components`), the runtime that composes them and
:class:`~repro.core.ebs.EbsGovernor` (which profiles through the same
:class:`~repro.core.components.DvfsProfiler`) can all import the
per-key adaptive state without a circular import.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.core.perf_model import ClusterModelSet
from repro.core.predictor import Prediction
from repro.hardware.dvfs import CpuConfig


class _Phase(enum.Enum):
    PROFILE_MAX = "profile-max"
    PROFILE_MIN = "profile-min"
    #: extra phases used only with ``profile_both_clusters=True``: the
    #: little-cluster model is fitted from its own two profiling runs
    #: instead of being derived from the big fit via the IPC ratio.
    PROFILE_LITTLE_MAX = "profile-little-max"
    PROFILE_LITTLE_MIN = "profile-little-min"
    STABLE = "stable"


@dataclass
class _KeyState:
    """Adaptive state for one annotated (element, event) key."""

    phase: _Phase = _Phase.PROFILE_MAX
    models: ClusterModelSet = field(default_factory=ClusterModelSet)
    profile_sample: Optional[tuple[int, float]] = None  # (freq_mhz, latency_us)
    #: latencies observed so far in the current profiling phase
    profile_buffer: list[float] = field(default_factory=list)
    #: recent observed cycle counts per cluster (surge-aware predictor)
    recent_cycles: dict = field(default_factory=dict)
    #: consecutive inputs under this key that produced no frame at all
    frameless_inputs: int = 0
    #: set once the key is known to never produce frames (e.g. an
    #: annotated touchstart whose page has no touchstart listener);
    #: such keys stop driving configuration changes.
    frameless: bool = False
    boost: int = 0
    consecutive_mispredictions: int = 0
    overpredict_streak: int = 0
    last_prediction: Optional[Prediction] = None
    #: the configuration actually requested (after boost) and the
    #: model's latency prediction AT that configuration — feedback must
    #: judge the model against what actually ran, not against the
    #: pre-boost sweep winner.
    last_requested: Optional[tuple[CpuConfig, float]] = None
    recalibrations: int = 0


@dataclass
class RuntimeStats:
    """Counters for reports and the ablation benchmarks."""

    inputs_seen: int = 0
    unannotated_inputs: int = 0
    predictions: int = 0
    profiling_frames: int = 0
    violations_fed_back: int = 0
    boosts_up: int = 0
    boosts_down: int = 0
    recalibrations: int = 0
    idle_drops: int = 0
