"""Fig. 12: execution configuration switching frequency.

Paper reference points: GreenWeb introduces only modest switching
(~20% on average); for most applications GreenWeb-I switches at least
as much as GreenWeb-U (tighter targets are more sensitive to frame
variance); and among *continuous-frame* applications frequency changes
dominate core migrations.
"""

import statistics

from conftest import run_once

from repro.evaluation.experiments import run_fig12_switching
from repro.evaluation.report import render_fig12


def test_fig12_switching_frequency(benchmark, record_figure, fig10_rows):
    rows = run_once(benchmark, lambda: run_fig12_switching(fig10_rows))
    record_figure("fig12_switching", render_fig12(rows))

    assert len(rows) == 12

    # Shape: switching is modest (paper: ~20% on average; switch
    # overheads of 20-100 us are negligible against ms-scale targets).
    mean_i = statistics.mean(r.total_i for r in rows)
    mean_u = statistics.mean(r.total_u for r in rows)
    assert mean_i < 60.0
    assert mean_u < 60.0

    # Shape: frequency switches dominate migrations for the
    # animation-heavy applications (the paper's per-frame adjustments
    # walk adjacent frequency steps).
    animation_apps = {"cnet", "w3schools"}
    for row in rows:
        if row.app in animation_apps:
            assert row.freq_switch_pct_i > row.migration_pct_i
