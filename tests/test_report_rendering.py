"""Tests for the report renderers (figure-shaped text tables)."""

import pytest

from repro.cli import main
from repro.core.qos import QoSType
from repro.evaluation.experiments import (
    DistributionRow,
    FullInteractionRow,
    MicrobenchRow,
    SwitchingRow,
    Table3Row,
)
from repro.evaluation.report import (
    render_fig9,
    render_fig10,
    render_fig11,
    render_fig12,
    render_table1,
    render_table3,
)
from repro.hardware.dvfs import CpuConfig


def micro_row(app="todo", i=40.0, u=30.0, vi=0.5, vu=0.2):
    return MicrobenchRow(
        app=app,
        qos_type=QoSType.SINGLE,
        perf_energy_j=1.0,
        greenweb_i_energy_norm_pct=i,
        greenweb_u_energy_norm_pct=u,
        greenweb_i_added_violation_pct=vi,
        greenweb_u_added_violation_pct=vu,
    )


def full_row(app="todo", interactive=98.0, i=50.0, u=30.0):
    return FullInteractionRow(
        app=app,
        perf_energy_j=5.0,
        interactive_energy_norm_pct=interactive,
        greenweb_i_energy_norm_pct=i,
        greenweb_u_energy_norm_pct=u,
        interactive_added_violation_i_pct=0.0,
        interactive_added_violation_u_pct=0.0,
        greenweb_i_added_violation_pct=1.0,
        greenweb_u_added_violation_pct=0.5,
    )


class TestRenderers:
    def test_table1_contains_all_categories(self):
        text = render_table1()
        # two 'single' rows (plus mentions inside descriptions)
        assert text.count("single") >= 2
        assert "continuous" in text
        assert "(16.6, 33.3) ms" in text
        assert "(1, 10) s" in text

    def test_fig9_summary_lines(self):
        text = render_fig9([micro_row(), micro_row(app="msn", i=80, u=70)])
        assert "paper: 31.9%" in text
        assert "msn" in text
        # mean saving = 100 - (40+80)/2 = 40
        assert "GreenWeb-I 40.0%" in text

    def test_fig10_sorted_ascending_by_greenweb_i(self):
        text = render_fig10([full_row(app="zzz", i=80), full_row(app="aaa", i=20)])
        assert text.index("aaa") < text.index("zzz")  # paper sorts ascending
        assert "paper: 29.2%" in text

    def test_fig10_saving_properties(self):
        row = full_row(interactive=100.0, i=50.0, u=25.0)
        assert row.greenweb_i_saving_vs_interactive_pct == pytest.approx(50.0)
        assert row.greenweb_u_saving_vs_interactive_pct == pytest.approx(75.0)

    def test_fig10_zero_interactive_guard(self):
        row = full_row(interactive=0.0)
        assert row.greenweb_i_saving_vs_interactive_pct == 0.0

    def test_fig11_cluster_shares(self):
        row = DistributionRow(
            app="x",
            residency_i={CpuConfig("big", 1800): 0.7, CpuConfig("little", 350): 0.3},
            residency_u={CpuConfig("little", 350): 1.0},
        )
        text = render_fig11([row])
        assert "70.0" in text and "30.0" in text and "100.0" in text
        assert row.big_fraction_i == pytest.approx(0.7)
        assert row.big_fraction_u == 0.0

    def test_fig12_totals(self):
        row = SwitchingRow("x", 10.0, 5.0, 8.0, 2.0)
        assert row.total_i == 15.0
        assert row.total_u == 10.0
        text = render_fig12([row])
        assert "paper: ~20%" in text

    def test_table3_paper_vs_measured_format(self):
        row = Table3Row(
            app="todo", interaction="Tapping", qos_type="Single",
            qos_target="(100, 300) ms", paper_duration_s=26,
            measured_duration_s=26.0, paper_events=26, measured_events=26,
            paper_annotation_pct=38.3, measured_annotation_pct=38.5,
        )
        text = render_table3([row])
        assert "26/26" in text
        assert "38.3" in text and "38.5" in text


#: ``repro analyze todo --scenario netdelay --seed 3``, byte for byte.
ANALYZE_TODO_NETDELAY_SEED3 = """\
frame timeline for todo / greenweb / netdelay:
  frames:      6 over 10.0 s (0.5 fps mean)
  latency:     p50=55.8 ms  p95=89.1 ms  p99=89.1 ms  max=89.1 ms
  jank:        4 frames >= 2 vsync periods (66.7%)

fps over time (1 s buckets):
    0s |#                                       |    1.0 fps
    1s |                                        |    0.0 fps
    2s |#                                       |    1.0 fps
    3s |                                        |    0.0 fps
    4s |#                                       |    1.0 fps
    5s |                                        |    0.0 fps
    6s |#                                       |    1.0 fps
    7s |                                        |    0.0 fps
    8s |#                                       |    1.0 fps
    9s |                                        |    0.0 fps
   10s |#                                       |    1.0 fps
"""

class TestAnalyzeCommand:
    def test_analyze_runs(self, capsys):
        assert main(["analyze", "todo", "--governor", "perf"]) == 0
        out = capsys.readouterr().out
        assert "frame timeline" in out
        assert "p50=" in out
        assert "jank" in out

    def test_analyze_output_pinned(self, capsys):
        """The exact report for one dynamic-scenario cell, pinned so the
        command's session wiring cannot drift silently."""
        assert main(["analyze", "todo", "--scenario", "netdelay", "--seed", "3"]) == 0
        assert capsys.readouterr().out == ANALYZE_TODO_NETDELAY_SEED3
