"""Reproducibility (Sec. 7.1): "We repeat every experiment 3 times ...
the run-to-run variations are usually about 5%, and do not affect our
conclusions."

The simulator is deterministic per seed, so this benchmark varies the
*workload* seed (equivalent to re-recording the interaction) and checks
that (a) identical seeds are bit-identical and (b) the seed-to-seed
energy spread stays small enough not to affect conclusions.  One grid
fleet of apps x {GreenWeb-I, Perf} x seeds feeds both the spread and
the GreenWeb-beats-Perf check.
"""

import statistics

from conftest import run_once

from repro.evaluation.runner import run_workload
from repro.fleet import Fleet, FleetSpec, MixEntry

APPS = ("todo", "cnet", "amazon")
GOVERNORS = ("greenweb", "perf")
SEEDS = (0, 1, 2)


def _grid():
    """{(app, governor): its micro runs under each seed, seed order}."""
    mix = [MixEntry(app, governor) for app in APPS for governor in GOVERNORS]
    fleet = Fleet(FleetSpec(sessions=len(mix) * len(SEEDS), mix=mix, seeds=SEEDS)).run()
    assert fleet.ok
    runs = iter(fleet.runs)
    return {(entry.app, entry.governor): [next(runs) for _ in SEEDS] for entry in mix}


def test_reproducibility(benchmark, record_figure):
    grid = run_once(benchmark, _grid)

    lines = ["Reproducibility: seed-to-seed variation (3 seeds, GreenWeb-I micro)"]
    spreads = []
    for app in APPS:
        runs = grid[app, "greenweb"]
        energies = [run["active_energy_j"] for run in runs]
        median = statistics.median(energies)
        spreads.append(100.0 * (max(energies) - min(energies)) / median)
        lines.append(
            f"  {app:10s} median={median*1000:8.1f} mJ "
            f"spread={spreads[-1]:5.1f}% "
            f"violations={['%.2f' % run['mean_violation_pct'] for run in runs]}"
        )
    record_figure("reproducibility", "\n".join(lines))

    # (a) determinism: identical seeds, identical joules.
    first = run_workload("cnet", "greenweb", "imperceptible", "micro", seed=0)
    second = run_workload("cnet", "greenweb", "imperceptible", "micro", seed=0)
    assert first.energy_j == second.energy_j
    assert first.event_violations_pct == second.event_violations_pct

    # (b) seed sensitivity does not affect conclusions (the paper saw
    # ~5% on hardware; allow a generous envelope for workload redraws).
    for spread in spreads:
        assert spread < 25.0

    # GreenWeb still beats Perf under every seed (conclusions stable).
    for app in APPS:
        for green, perf in zip(grid[app, "greenweb"], grid[app, "perf"]):
            assert green["active_energy_j"] < perf["active_energy_j"]
