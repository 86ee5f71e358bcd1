"""Figs. 10a/b/c: full-interaction energy and QoS violations.

Paper reference points: GreenWeb saves 29.2% (imperceptible) and 66.0%
(usable) vs. Android's Interactive governor; Interactive consumes
energy close to Perf; GreenWeb adds only ~0.8% / ~0.6% violations.
"""

import statistics

from conftest import run_once

from repro.evaluation.report import render_fig10


def test_fig10_full_interactions(benchmark, record_figure, fig10_rows):
    rows = fig10_rows
    record_figure("fig10_full", run_once(benchmark, lambda: render_fig10(rows)))

    assert len(rows) == 12

    # Shape: Interactive consumes energy close to Perf (Sec. 7.3 —
    # high CPU utilization keeps it near peak).
    mean_interactive = statistics.mean(r.interactive_energy_norm_pct for r in rows)
    assert mean_interactive > 90.0

    # Shape: GreenWeb beats Interactive in both scenarios, usable more.
    saving_i = statistics.mean(r.greenweb_i_saving_vs_interactive_pct for r in rows)
    saving_u = statistics.mean(r.greenweb_u_saving_vs_interactive_pct for r in rows)
    assert saving_i > 15.0
    assert saving_u > saving_i

    # Shape: full-interaction violations are lower than the
    # micro-benchmarks' (profiling amortized over longer sequences).
    mean_viol_i = statistics.mean(r.greenweb_i_added_violation_pct for r in rows)
    assert mean_viol_i < 6.0

    # Per-app shape: every app saves energy under GreenWeb-U.
    for row in rows:
        assert row.greenweb_u_energy_norm_pct < 90.0
