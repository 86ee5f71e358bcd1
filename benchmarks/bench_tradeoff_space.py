"""The ACMP trade-off space (paper Sec. 2 / Sec. 6.1 motivation).

"The ACMP architecture ... is long known to provide a wide
performance-energy trade-off space."  This benchmark pins every one of
the 17 static <cluster, frequency> configurations, maps the
latency/energy space for one workload, and checks that the GreenWeb
runtime's dynamic choices land on or near the static Pareto frontier.
"""

from conftest import run_once

from repro.evaluation.analysis import pareto_frontier, run_tradeoff_space
from repro.evaluation.report import render_tradeoff_space
from repro.evaluation.runner import run_workload


def _sweep():
    return run_tradeoff_space("cnet")


def test_tradeoff_space(benchmark, record_figure):
    points = run_once(benchmark, _sweep)
    frontier = pareto_frontier(points)
    green = run_workload("cnet", "greenweb", "imperceptible", "micro")
    record_figure("tradeoff_space", render_tradeoff_space(points, green))

    assert len(points) == 17
    # Wide space: >2x latency spread and measurable energy spread.
    latencies = [p.mean_frame_latency_us for p in points]
    energies = [p.active_energy_j for p in points]
    assert max(latencies) > 2.0 * min(latencies)
    assert max(energies) > 1.3 * min(energies)
    # The frontier spans both clusters.
    assert {p.cluster for p in frontier} == {"big", "little"}

    # GreenWeb's dynamic schedule beats every static configuration that
    # achieves comparable QoS (within 2x of its violation level).
    comparable = [
        p for p in points if p.mean_violation_pct <= max(2.0 * green.mean_violation_pct, 2.0)
    ]
    assert comparable, "no static config achieves comparable QoS"
    assert green.active_energy_j < max(p.active_energy_j for p in comparable)
