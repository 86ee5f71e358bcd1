"""Reproducibility (Sec. 7.1): "We repeat every experiment 3 times ...
the run-to-run variations are usually about 5%, and do not affect our
conclusions."

The simulator is deterministic per seed, so this benchmark varies the
*workload* seed (equivalent to re-recording the interaction) and checks
that (a) identical seeds are bit-identical and (b) the seed-to-seed
energy spread stays small enough not to affect conclusions.
"""


from conftest import run_once

from repro.evaluation.runner import run_workload
from repro.evaluation.sweeps import seed_variation

APPS = ("todo", "cnet", "amazon")


def _variations():
    return {app: seed_variation(app, seeds=(0, 1, 2)) for app in APPS}


def test_reproducibility(benchmark, record_figure):
    variations = run_once(benchmark, _variations)

    lines = ["Reproducibility: seed-to-seed variation (3 seeds, GreenWeb-I micro)"]
    for app, variation in variations.items():
        lines.append(
            f"  {app:10s} median={variation.energy_median_j*1000:8.1f} mJ "
            f"spread={variation.energy_rel_spread_pct:5.1f}% "
            f"violations={['%.2f' % v for v in variation.violations_pct]}"
        )
    record_figure("reproducibility", "\n".join(lines))

    # (a) determinism: identical seeds, identical joules.
    first = run_workload("cnet", "greenweb", "imperceptible", "micro", seed=0)
    second = run_workload("cnet", "greenweb", "imperceptible", "micro", seed=0)
    assert first.energy_j == second.energy_j
    assert first.event_violations_pct == second.event_violations_pct

    # (b) seed sensitivity does not affect conclusions (the paper saw
    # ~5% on hardware; allow a generous envelope for workload redraws).
    for variation in variations.values():
        assert variation.energy_rel_spread_pct < 25.0

    # GreenWeb still beats Perf under every seed (conclusions stable).
    for app in APPS:
        for seed in (0, 1, 2):
            perf = run_workload(app, "perf", "imperceptible", "micro", seed)
            green = run_workload(app, "greenweb", "imperceptible", "micro", seed)
            assert green.active_energy_j < perf.active_energy_j
