"""Figs. 11a/11b: architecture configuration distribution.

Paper reference points: GreenWeb biases toward big-core (A15)
configurations much more under the imperceptible scenario than under
usable, and dynamically adapts configurations per QoS target — the
evidence that ACMP hardware benefits mobile web when the runtime uses
it intelligently.
"""

import statistics

from conftest import run_once

from repro.evaluation.experiments import run_fig11_distribution
from repro.evaluation.report import render_fig11


def test_fig11_configuration_distribution(benchmark, record_figure, fig10_rows):
    rows = run_once(benchmark, lambda: run_fig11_distribution(fig10_rows))
    record_figure("fig11_distribution", render_fig11(rows))

    assert len(rows) == 12

    # Shape: imperceptible biases toward big much more than usable.
    mean_big_i = statistics.mean(r.big_fraction_i for r in rows)
    mean_big_u = statistics.mean(r.big_fraction_u for r in rows)
    assert mean_big_i > 2.0 * mean_big_u

    # Shape: per-app, I-mode never uses big *less* than U-mode by more
    # than noise.
    for row in rows:
        assert row.big_fraction_i >= row.big_fraction_u - 0.10

    # Shape: the apps the paper singles out as little-core-feasible in
    # I-mode (Todo, CamanJS — light frames vs. loose targets) indeed
    # run overwhelmingly on the little cluster.
    by_app = {r.app: r for r in rows}
    for app in ("todo", "camanjs"):
        assert by_app[app].big_fraction_i < 0.25
