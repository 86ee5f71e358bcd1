"""Per-figure experiment definitions (paper Sec. 7).

Every function runs its experiment matrix and returns structured rows;
:mod:`repro.evaluation.report` renders them in the paper's shape.
Results are normalised exactly as the paper normalises them:

* energy is reported relative to *Perf* (lower is better);
* QoS violations are reported as *additional* violations on top of
  Perf's under the same scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.qos import QoSType
from repro.errors import EvaluationError
from repro.evaluation.metrics import cluster_residency, switching_per_frame_pct
from repro.evaluation.runner import RunResult, run_workload
from repro.fleet.pool import WorkerPool
from repro.hardware.dvfs import CpuConfig
from repro.workloads.registry import APP_NAMES, app_spec

#: the paper's two usage scenarios (Sec. 7.1), as scenario spec strings
I = "imperceptible"
U = "usable"


def _run_cell(cell: tuple) -> RunResult:
    """Module-level (hence picklable) runner for one experiment cell."""
    app, governor, scenario, trace_kind, seed = cell
    return run_workload(app, governor, scenario, trace_kind, seed)


def _run_matrix(
    apps: list[str],
    variants: list[tuple[str, str]],
    trace_kind: str,
    seed: int,
    jobs: int,
) -> dict[str, list[RunResult]]:
    """Run apps x variants, inline for one job or on a
    :class:`~repro.fleet.pool.WorkerPool` of ``jobs`` processes, and
    return the per-app result rows in variant order."""
    if jobs < 1:
        raise EvaluationError(f"figures need >= 1 job, got {jobs}")
    cells = [
        (app, governor, scenario, trace_kind, seed)
        for app in apps
        for governor, scenario in variants
    ]
    if jobs == 1:
        results = [_run_cell(cell) for cell in cells]
    else:
        pool = WorkerPool(min(jobs, len(cells)))
        try:
            futures = [pool.submit(_run_cell, cell) for cell in cells]
            results = [future.result() for future in futures]
        finally:
            pool.shutdown()
    stride = len(variants)
    return {
        app: results[index * stride : (index + 1) * stride]
        for index, app in enumerate(apps)
    }


# ----------------------------------------------------------------------
# Fig. 9: micro-benchmarks
# ----------------------------------------------------------------------
@dataclass
class MicrobenchRow:
    """One application's micro-benchmark results (Figs. 9a + 9b)."""

    app: str
    qos_type: QoSType
    perf_energy_j: float
    greenweb_i_energy_norm_pct: float
    greenweb_u_energy_norm_pct: float
    greenweb_i_added_violation_pct: float
    greenweb_u_added_violation_pct: float

    @property
    def i_saving_pct(self) -> float:
        return 100.0 - self.greenweb_i_energy_norm_pct

    @property
    def u_saving_pct(self) -> float:
        return 100.0 - self.greenweb_u_energy_norm_pct


def run_fig9_microbenchmarks(
    apps: Optional[list[str]] = None, seed: int = 0, jobs: int = 1
) -> list[MicrobenchRow]:
    """Figs. 9a/9b: GreenWeb-I and GreenWeb-U vs. Perf on each app's
    micro interaction.  ``jobs > 1`` runs the matrix on worker
    processes; the rows are identical either way."""
    app_list = list(apps or APP_NAMES)
    matrix = _run_matrix(
        app_list,
        [("perf", I), ("perf", U), ("greenweb", I), ("greenweb", U)],
        "micro",
        seed,
        jobs,
    )
    rows = []
    for app in app_list:
        perf_i, perf_u, green_i, green_u = matrix[app]
        rows.append(
            MicrobenchRow(
                app=app,
                qos_type=app_spec(app).micro_qos_type,
                perf_energy_j=perf_i.active_energy_j,
                # Micro-benchmarks compare per-interaction (active
                # window) energy, as the paper's Fig. 9a does.
                greenweb_i_energy_norm_pct=100.0 * green_i.active_energy_vs(perf_i),
                greenweb_u_energy_norm_pct=100.0 * green_u.active_energy_vs(perf_u),
                greenweb_i_added_violation_pct=max(
                    0.0, green_i.mean_violation_pct - perf_i.mean_violation_pct
                ),
                greenweb_u_added_violation_pct=max(
                    0.0, green_u.mean_violation_pct - perf_u.mean_violation_pct
                ),
            )
        )
    return rows


# ----------------------------------------------------------------------
# Fig. 10: full interactions
# ----------------------------------------------------------------------
@dataclass
class FullInteractionRow:
    """One application's full-interaction results (Figs. 10a/b/c)."""

    app: str
    perf_energy_j: float
    interactive_energy_norm_pct: float
    greenweb_i_energy_norm_pct: float
    greenweb_u_energy_norm_pct: float
    interactive_added_violation_i_pct: float
    interactive_added_violation_u_pct: float
    greenweb_i_added_violation_pct: float
    greenweb_u_added_violation_pct: float
    #: the underlying runs, for Figs. 11/12 post-processing
    runs: dict[str, RunResult] = field(default_factory=dict)

    @property
    def greenweb_i_saving_vs_interactive_pct(self) -> float:
        if self.interactive_energy_norm_pct <= 0:
            return 0.0
        return 100.0 * (
            1.0 - self.greenweb_i_energy_norm_pct / self.interactive_energy_norm_pct
        )

    @property
    def greenweb_u_saving_vs_interactive_pct(self) -> float:
        if self.interactive_energy_norm_pct <= 0:
            return 0.0
        return 100.0 * (
            1.0 - self.greenweb_u_energy_norm_pct / self.interactive_energy_norm_pct
        )


def run_fig10_full_interactions(
    apps: Optional[list[str]] = None, seed: int = 0, jobs: int = 1
) -> list[FullInteractionRow]:
    """Figs. 10a/b/c: Interactive + GreenWeb-I/U vs. Perf, full traces.
    ``jobs > 1`` runs the matrix on worker processes; the rows are
    identical either way."""
    app_list = list(apps or APP_NAMES)
    matrix = _run_matrix(
        app_list,
        [
            ("perf", I),
            ("perf", U),
            ("interactive", I),
            ("interactive", U),
            ("greenweb", I),
            ("greenweb", U),
        ],
        "full",
        seed,
        jobs,
    )
    rows = []
    for app in app_list:
        perf_i, perf_u, inter_i, inter_u, green_i, green_u = matrix[app]
        rows.append(
            FullInteractionRow(
                app=app,
                perf_energy_j=perf_i.energy_j,
                # Full-interaction energy compares the interaction
                # sessions' active windows (idle gaps between scripted
                # inputs carry no information about the governors and
                # depend only on trace spacing).  RunResult also keeps
                # wall-clock totals; EXPERIMENTS.md reports both.
                interactive_energy_norm_pct=100.0 * inter_i.active_energy_vs(perf_i),
                greenweb_i_energy_norm_pct=100.0 * green_i.active_energy_vs(perf_i),
                greenweb_u_energy_norm_pct=100.0 * green_u.active_energy_vs(perf_u),
                interactive_added_violation_i_pct=max(
                    0.0, inter_i.mean_violation_pct - perf_i.mean_violation_pct
                ),
                interactive_added_violation_u_pct=max(
                    0.0, inter_u.mean_violation_pct - perf_u.mean_violation_pct
                ),
                greenweb_i_added_violation_pct=max(
                    0.0, green_i.mean_violation_pct - perf_i.mean_violation_pct
                ),
                greenweb_u_added_violation_pct=max(
                    0.0, green_u.mean_violation_pct - perf_u.mean_violation_pct
                ),
                runs={
                    "perf_i": perf_i,
                    "interactive_i": inter_i,
                    "greenweb_i": green_i,
                    "greenweb_u": green_u,
                },
            )
        )
    return rows


# ----------------------------------------------------------------------
# Fig. 11: architecture configuration distribution
# ----------------------------------------------------------------------
@dataclass
class DistributionRow:
    """One application's config residency under GreenWeb-I/U (Fig. 11)."""

    app: str
    residency_i: dict[CpuConfig, float]
    residency_u: dict[CpuConfig, float]

    @property
    def big_fraction_i(self) -> float:
        return cluster_residency(self.residency_i).get("big", 0.0)

    @property
    def big_fraction_u(self) -> float:
        return cluster_residency(self.residency_u).get("big", 0.0)


def run_fig11_distribution(
    apps: Optional[list[str]] = None,
    seed: int = 0,
    fig10_rows: Optional[list[FullInteractionRow]] = None,
) -> list[DistributionRow]:
    """Figs. 11a/11b: where GreenWeb spends its time.  Reuses Fig. 10's
    runs when provided (the distributions come from the same traces)."""
    rows = []
    if fig10_rows is not None:
        for row in fig10_rows:
            rows.append(
                DistributionRow(
                    app=row.app,
                    residency_i=row.runs["greenweb_i"].active_config_residency,
                    residency_u=row.runs["greenweb_u"].active_config_residency,
                )
            )
        return rows
    for app in apps or APP_NAMES:
        green_i = run_workload(app, "greenweb", I, "full", seed)
        green_u = run_workload(app, "greenweb", U, "full", seed)
        rows.append(
            DistributionRow(
                app=app,
                residency_i=green_i.active_config_residency,
                residency_u=green_u.active_config_residency,
            )
        )
    return rows


# ----------------------------------------------------------------------
# Fig. 12: configuration switching frequency
# ----------------------------------------------------------------------
@dataclass
class SwitchingRow:
    """One application's switching behaviour (Fig. 12)."""

    app: str
    freq_switch_pct_i: float
    migration_pct_i: float
    freq_switch_pct_u: float
    migration_pct_u: float

    @property
    def total_i(self) -> float:
        return self.freq_switch_pct_i + self.migration_pct_i

    @property
    def total_u(self) -> float:
        return self.freq_switch_pct_u + self.migration_pct_u


def run_fig12_switching(
    apps: Optional[list[str]] = None,
    seed: int = 0,
    fig10_rows: Optional[list[FullInteractionRow]] = None,
) -> list[SwitchingRow]:
    """Fig. 12: frequency switches vs. core migrations per frame."""
    rows = []

    def make_row(app: str, green_i: RunResult, green_u: RunResult) -> SwitchingRow:
        fi, mi = switching_per_frame_pct(
            green_i.freq_switches, green_i.migrations, green_i.inputs + green_i.frames
        )
        fu, mu = switching_per_frame_pct(
            green_u.freq_switches, green_u.migrations, green_u.inputs + green_u.frames
        )
        return SwitchingRow(app, fi, mi, fu, mu)

    if fig10_rows is not None:
        return [
            make_row(row.app, row.runs["greenweb_i"], row.runs["greenweb_u"])
            for row in fig10_rows
        ]
    for app in apps or APP_NAMES:
        green_i = run_workload(app, "greenweb", I, "full", seed)
        green_u = run_workload(app, "greenweb", U, "full", seed)
        rows.append(make_row(app, green_i, green_u))
    return rows


# ----------------------------------------------------------------------
# Table 3: application characteristics
# ----------------------------------------------------------------------
@dataclass
class Table3Row:
    """Measured vs. paper application characteristics."""

    app: str
    interaction: str
    qos_type: str
    qos_target: str
    paper_duration_s: int
    measured_duration_s: float
    paper_events: int
    measured_events: int
    paper_annotation_pct: float
    measured_annotation_pct: float


def run_table3_characteristics(seed: int = 0) -> list[Table3Row]:
    """Table 3: per-app events / durations / annotation coverage."""
    from repro.core.annotations import AnnotationRegistry
    from repro.workloads.registry import build_app

    rows = []
    for app in APP_NAMES:
        bundle = build_app(app, seed)
        spec = bundle.spec
        registry = AnnotationRegistry.from_stylesheet(bundle.page.stylesheet)
        annotated = 0
        for scripted in bundle.full_trace.events:
            target = (
                bundle.page.document.get_element_by_id(scripted.target_id)
                if scripted.target_id
                else bundle.page.document.root
            )
            if registry.lookup(target, scripted.event_type) is not None:
                annotated += 1
        rows.append(
            Table3Row(
                app=app,
                interaction=str(spec.micro_interaction).capitalize(),
                qos_type=str(spec.micro_qos_type).capitalize(),
                qos_target=spec.micro_target_label,
                paper_duration_s=spec.full_duration_s,
                measured_duration_s=bundle.full_trace.duration_s,
                paper_events=spec.full_events,
                measured_events=len(bundle.full_trace),
                paper_annotation_pct=spec.annotation_pct,
                measured_annotation_pct=100.0 * annotated / len(bundle.full_trace),
            )
        )
    return rows
