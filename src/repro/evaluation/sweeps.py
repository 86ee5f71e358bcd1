"""Parameter sweeps: grids over (app x governor x scenario x seed).

The paper repeats every experiment three times and reports medians,
noting ~5% run-to-run variation (Sec. 7.1).  The simulator is
deterministic per seed, so "run-to-run" becomes "seed-to-seed": the
seed perturbs workload draws (callback work, complexity surges) the way
re-recording an interaction would on real hardware.

:func:`run_sweep` executes a grid and returns flat rows;
:func:`write_csv` persists them for external analysis;
:func:`seed_variation` quantifies the seed sensitivity of one cell.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import EvaluationError
from repro.evaluation.runner import RunResult, run_workload
from repro.policies import POLICIES
from repro.scenarios import SCENARIOS, ScenarioSpec
from repro.workloads.registry import APP_NAMES


@dataclass(frozen=True)
class SweepSpec:
    """One experiment grid."""

    apps: tuple[str, ...] = APP_NAMES
    governors: tuple[str, ...] = ("perf", "interactive", "greenweb")
    scenarios: tuple[str, ...] = ("imperceptible", "usable")
    trace_kind: str = "micro"
    seeds: tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        unknown_apps = set(self.apps) - set(APP_NAMES)
        if unknown_apps:
            raise EvaluationError(f"unknown apps in sweep: {sorted(unknown_apps)}")
        # Registry-backed: each governor may be any registered policy
        # spec (parameterized variants sweep as distinct columns); store
        # the canonical strings so CSV rows group consistently.
        object.__setattr__(
            self,
            "governors",
            tuple(POLICIES.normalize(governor).canonical() for governor in self.governors),
        )
        # Likewise scenarios: a typo fails here, not partway through
        # run_sweep.
        object.__setattr__(
            self,
            "scenarios",
            tuple(SCENARIOS.normalize(scenario).canonical() for scenario in self.scenarios),
        )

    @property
    def cell_count(self) -> int:
        return len(self.apps) * len(self.governors) * len(self.scenarios) * len(self.seeds)


def run_sweep(spec: SweepSpec, progress=None) -> list[RunResult]:
    """Execute every grid cell; ``progress(done, total)`` is called
    after each if provided."""
    results: list[RunResult] = []
    total = spec.cell_count
    for app in spec.apps:
        for governor in spec.governors:
            for scenario in spec.scenarios:
                for seed in spec.seeds:
                    results.append(
                        run_workload(app, governor, scenario, spec.trace_kind, seed)
                    )
                    if progress is not None:
                        progress(len(results), total)
    return results


#: Columns written by :func:`write_csv`, in order.
CSV_COLUMNS = (
    "app",
    "governor",
    "scenario",
    "trace_kind",
    "duration_s",
    "energy_j",
    "active_energy_j",
    "active_time_s",
    "frames",
    "inputs",
    "skipped_vsyncs",
    "mean_violation_pct",
    "annotated_events",
    "freq_switches",
    "migrations",
)


def result_row(result: RunResult) -> dict[str, object]:
    """Flatten one :class:`RunResult` into a CSV row dict."""
    return {
        "app": result.app,
        "governor": result.governor,
        "scenario": str(result.scenario),
        "trace_kind": result.trace_kind,
        "duration_s": round(result.duration_s, 3),
        "energy_j": round(result.energy_j, 6),
        "active_energy_j": round(result.active_energy_j, 6),
        "active_time_s": round(result.active_time_s, 3),
        "frames": result.frames,
        "inputs": result.inputs,
        "skipped_vsyncs": result.skipped_vsyncs,
        "mean_violation_pct": round(result.mean_violation_pct, 3),
        "annotated_events": result.annotated_events,
        "freq_switches": result.freq_switches,
        "migrations": result.migrations,
    }


def write_csv(results: Iterable[RunResult], path: str) -> int:
    """Write sweep results as CSV; returns the row count."""
    rows = [result_row(r) for r in results]
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    return len(rows)


@dataclass(frozen=True)
class SeedVariation:
    """Seed-sensitivity summary for one grid cell."""

    app: str
    governor: str
    energies_j: tuple[float, ...]
    violations_pct: tuple[float, ...]

    @property
    def energy_median_j(self) -> float:
        return statistics.median(self.energies_j)

    @property
    def energy_rel_spread_pct(self) -> float:
        """(max - min) / median, in percent — the paper's ~5% claim."""
        median = self.energy_median_j
        if median == 0:
            return 0.0
        return 100.0 * (max(self.energies_j) - min(self.energies_j)) / median


def seed_variation(
    app: str,
    governor: str = "greenweb",
    scenario: "ScenarioSpec | str" = "imperceptible",
    trace_kind: str = "micro",
    seeds: Sequence[int] = (0, 1, 2),
) -> SeedVariation:
    """Run one cell across seeds (the paper's three repetitions)."""
    if len(seeds) < 2:
        raise EvaluationError("seed variation needs at least two seeds")
    energies = []
    violations = []
    for seed in seeds:
        result = run_workload(app, governor, scenario, trace_kind, seed)
        energies.append(result.active_energy_j)
        violations.append(result.mean_violation_pct)
    return SeedVariation(app, governor, tuple(energies), tuple(violations))
