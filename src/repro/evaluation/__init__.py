"""Evaluation harness: metrics, runners, and per-figure experiments.

Reproduces the paper's Sec. 7 methodology:

* :mod:`repro.evaluation.metrics` — QoS violation (per-frame percentage
  over target; geometric mean across a continuous event's frames) and
  configuration switching frequency (Fig. 12).
* :mod:`repro.evaluation.folds` — streaming session observers, the only
  metric path for architecture-configuration residency (Fig. 11),
  frame-timeline statistics and prediction accuracy.
* :mod:`repro.evaluation.runner` — run one (application, governor,
  scenario, trace) combination on a fresh platform + browser stack.
* :mod:`repro.evaluation.experiments` — the figure/table experiment
  matrix (Figs. 9, 10, 11, 12; Tables 1, 3) plus ablations.
* :mod:`repro.evaluation.report` — text rendering of each experiment in
  the shape the paper reports it.
"""

from repro.evaluation.metrics import (
    event_violation_pct,
    geo_mean_violation_pct,
    violation_pct,
)
from repro.evaluation.runner import GOVERNORS, RunResult, run_workload
from repro.evaluation.analysis import (
    fps_over_time,
    pareto_frontier,
    run_tradeoff_space,
)
from repro.evaluation.folds import FrameTimelineFold, PredictionAccuracyFold
from repro.evaluation.experiments import (
    run_fig9_microbenchmarks,
    run_fig10_full_interactions,
    run_fig11_distribution,
    run_fig12_switching,
    run_table3_characteristics,
)

__all__ = [
    "violation_pct",
    "geo_mean_violation_pct",
    "event_violation_pct",
    "RunResult",
    "run_workload",
    "GOVERNORS",
    "run_fig9_microbenchmarks",
    "run_fig10_full_interactions",
    "run_fig11_distribution",
    "run_fig12_switching",
    "run_table3_characteristics",
    "FrameTimelineFold",
    "fps_over_time",
    "PredictionAccuracyFold",
    "run_tradeoff_space",
    "pareto_frontier",
]
