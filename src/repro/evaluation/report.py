"""Text and HTML rendering of experiment results.

Each ``render_*`` function takes the rows its experiment produced and
returns a plain-text table whose rows/series mirror the corresponding
paper figure or table, with the paper's reference numbers alongside
where the paper states them.  :func:`render_fleet_html` is the HTML
counterpart for fleet aggregates: the dashboard the ``repro serve``
daemon serves at ``GET /jobs/{id}/report``.
"""

from __future__ import annotations

import html as _html
from typing import Optional, Sequence

from repro.core.qos import TABLE1_CATEGORIES
from repro.evaluation.analysis import TradeoffPoint, pareto_frontier
from repro.evaluation.experiments import (
    DistributionRow,
    FullInteractionRow,
    MicrobenchRow,
    SwitchingRow,
    Table3Row,
)
from repro.evaluation.metrics import cluster_residency
from repro.evaluation.runner import RunResult


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _rule(widths: Sequence[int]) -> str:
    return "-+-".join("-" * w for w in widths)


def _row(cells: Sequence[str], widths: Sequence[int]) -> str:
    return " | ".join(str(c).ljust(w) for c, w in zip(cells, widths)).rstrip()


def ascii_bars(
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 40,
    unit: str = "%",
    max_value: Optional[float] = None,
) -> str:
    """A horizontal ASCII bar chart — the terminal rendering of the
    paper's bar figures (used by the CLI's ``figures`` command)."""
    if len(labels) != len(values):
        raise ValueError("labels/values length mismatch")
    if not values:
        return "(no data)"
    top = max_value if max_value is not None else max(max(values), 1e-12)
    label_width = max(len(l) for l in labels)
    lines = []
    for label, value in zip(labels, values):
        filled = int(round(width * min(value, top) / top)) if top > 0 else 0
        bar = "#" * filled
        lines.append(f"{label.ljust(label_width)} |{bar.ljust(width)}| {value:6.1f}{unit}")
    return "\n".join(lines)


def render_table1() -> str:
    """The paper's Table 1: QoS type x target interaction categories."""
    widths = (12, 16, 10, 60)
    lines = [
        "Table 1: interaction categories (QoS type x QoS target)",
        _row(("QoS type", "QoS target", "Interact.", "Description"), widths),
        _rule(widths),
    ]
    for category in TABLE1_CATEGORIES:
        target = category.target
        if target.imperceptible_ms >= 1000:
            target_text = f"({target.imperceptible_ms/1000:g}, {target.usable_ms/1000:g}) s"
        else:
            target_text = f"({target.imperceptible_ms:g}, {target.usable_ms:g}) ms"
        lines.append(
            _row(
                (
                    str(category.qos_type),
                    target_text,
                    ", ".join(category.interactions),
                    category.description,
                ),
                widths,
            )
        )
    return "\n".join(lines)


def render_fig9(rows: list[MicrobenchRow]) -> str:
    """Figs. 9a/9b: micro-benchmark energy (normalised to Perf) and
    added QoS violations for GreenWeb-I / GreenWeb-U."""
    widths = (12, 11, 9, 9, 10, 10)
    lines = [
        "Fig. 9: micro-benchmarks (energy normalised to Perf; violations on top of Perf)",
        _row(("app", "QoS type", "GW-I E%", "GW-U E%", "+viol I%", "+viol U%"), widths),
        _rule(widths),
    ]
    for row in rows:
        lines.append(
            _row(
                (
                    row.app,
                    str(row.qos_type),
                    f"{row.greenweb_i_energy_norm_pct:.1f}",
                    f"{row.greenweb_u_energy_norm_pct:.1f}",
                    f"{row.greenweb_i_added_violation_pct:.2f}",
                    f"{row.greenweb_u_added_violation_pct:.2f}",
                ),
                widths,
            )
        )
    lines.append(_rule(widths))
    lines.append(
        f"mean energy saving: GreenWeb-I {100 - _mean([r.greenweb_i_energy_norm_pct for r in rows]):.1f}% "
        f"(paper: 31.9%), GreenWeb-U {100 - _mean([r.greenweb_u_energy_norm_pct for r in rows]):.1f}% "
        f"(paper: 78.0%)"
    )
    lines.append(
        f"mean added violations: I {_mean([r.greenweb_i_added_violation_pct for r in rows]):.2f}% "
        f"(paper: 1.3%), U {_mean([r.greenweb_u_added_violation_pct for r in rows]):.2f}% (paper: 1.2%)"
    )
    return "\n".join(lines)


def render_fig10(rows: list[FullInteractionRow]) -> str:
    """Figs. 10a/b/c: full-interaction energy and violations."""
    widths = (12, 9, 9, 9, 11, 10, 10)
    lines = [
        "Fig. 10: full interactions (energy normalised to Perf; violations on top of Perf)",
        _row(
            ("app", "Inter E%", "GW-I E%", "GW-U E%", "+vI inter%", "+vI GW%", "+vU GW%"),
            widths,
        ),
        _rule(widths),
    ]
    for row in sorted(rows, key=lambda r: r.greenweb_i_energy_norm_pct):
        lines.append(
            _row(
                (
                    row.app,
                    f"{row.interactive_energy_norm_pct:.1f}",
                    f"{row.greenweb_i_energy_norm_pct:.1f}",
                    f"{row.greenweb_u_energy_norm_pct:.1f}",
                    f"{row.interactive_added_violation_i_pct:.2f}",
                    f"{row.greenweb_i_added_violation_pct:.2f}",
                    f"{row.greenweb_u_added_violation_pct:.2f}",
                ),
                widths,
            )
        )
    lines.append(_rule(widths))
    saving_i = _mean([r.greenweb_i_saving_vs_interactive_pct for r in rows])
    saving_u = _mean([r.greenweb_u_saving_vs_interactive_pct for r in rows])
    lines.append(
        f"mean saving vs Interactive: GreenWeb-I {saving_i:.1f}% (paper: 29.2%), "
        f"GreenWeb-U {saving_u:.1f}% (paper: 66.0%)"
    )
    lines.append(
        f"mean added violations: GreenWeb-I {_mean([r.greenweb_i_added_violation_pct for r in rows]):.2f}% "
        f"(paper: 0.8%), GreenWeb-U {_mean([r.greenweb_u_added_violation_pct for r in rows]):.2f}% "
        f"(paper: 0.6%)"
    )
    return "\n".join(lines)


def render_fig11(rows: list[DistributionRow]) -> str:
    """Figs. 11a/11b: architecture configuration distribution."""
    widths = (12, 10, 12, 10, 12)
    lines = [
        "Fig. 11: configuration residency during interactions (GreenWeb-I vs GreenWeb-U)",
        _row(("app", "big% (I)", "little% (I)", "big% (U)", "little% (U)"), widths),
        _rule(widths),
    ]
    for row in rows:
        by_cluster_i = cluster_residency(row.residency_i)
        by_cluster_u = cluster_residency(row.residency_u)
        lines.append(
            _row(
                (
                    row.app,
                    f"{100 * by_cluster_i.get('big', 0.0):.1f}",
                    f"{100 * by_cluster_i.get('little', 0.0):.1f}",
                    f"{100 * by_cluster_u.get('big', 0.0):.1f}",
                    f"{100 * by_cluster_u.get('little', 0.0):.1f}",
                ),
                widths,
            )
        )
    lines.append(_rule(widths))
    lines.append(
        f"mean big-cluster share: imperceptible {100 * _mean([r.big_fraction_i for r in rows]):.1f}% "
        f"vs usable {100 * _mean([r.big_fraction_u for r in rows]):.1f}% "
        f"(paper: GreenWeb-I biases toward big configurations much more than GreenWeb-U)"
    )
    return "\n".join(lines)


def render_fig12(rows: list[SwitchingRow]) -> str:
    """Fig. 12: configuration switching frequency."""
    widths = (12, 10, 9, 10, 9)
    lines = [
        "Fig. 12: configuration switches per scheduling opportunity (%)",
        _row(("app", "freq (I)", "mig (I)", "freq (U)", "mig (U)"), widths),
        _rule(widths),
    ]
    for row in rows:
        lines.append(
            _row(
                (
                    row.app,
                    f"{row.freq_switch_pct_i:.1f}",
                    f"{row.migration_pct_i:.1f}",
                    f"{row.freq_switch_pct_u:.1f}",
                    f"{row.migration_pct_u:.1f}",
                ),
                widths,
            )
        )
    lines.append(_rule(widths))
    lines.append(
        f"mean switching: I {_mean([r.total_i for r in rows]):.1f}%, "
        f"U {_mean([r.total_u for r in rows]):.1f}% (paper: ~20% on average)"
    )
    return "\n".join(lines)


def render_table3(rows: list[Table3Row]) -> str:
    """Table 3: application characteristics, paper vs. measured."""
    widths = (12, 9, 11, 15, 11, 11, 13, 13)
    lines = [
        "Table 3: applications (paper value / measured value)",
        _row(
            ("app", "interact", "QoS type", "QoS target", "time (s)", "events",
             "annot% paper", "annot% meas"),
            widths,
        ),
        _rule(widths),
    ]
    for row in rows:
        lines.append(
            _row(
                (
                    row.app,
                    row.interaction,
                    row.qos_type,
                    row.qos_target,
                    f"{row.paper_duration_s}/{row.measured_duration_s:.0f}",
                    f"{row.paper_events}/{row.measured_events}",
                    f"{row.paper_annotation_pct:.1f}",
                    f"{row.measured_annotation_pct:.1f}",
                ),
                widths,
            )
        )
    return "\n".join(lines)


def render_tradeoff_space(points: Sequence[TradeoffPoint], green: RunResult) -> str:
    """The ACMP trade-off space: every static configuration's latency
    and energy (Pareto-optimal ones starred), fastest first, then the
    GreenWeb runtime's dynamic run on the same interaction."""
    frontier_labels = {p.label for p in pareto_frontier(points)}
    lines = [
        "ACMP static-configuration trade-off space (Cnet micro interaction)",
        f"{'config':14s} {'latency (ms)':>13s} {'energy (mJ)':>12s} {'viol %':>7s} {'pareto':>7s}",
    ]
    for point in sorted(points, key=lambda p: p.mean_frame_latency_us):
        lines.append(
            f"{point.label:14s} {point.mean_frame_latency_us/1000:13.2f} "
            f"{point.active_energy_j*1000:12.1f} {point.mean_violation_pct:7.2f} "
            f"{'*' if point.label in frontier_labels else '':>7s}"
        )
    lines.append(
        f"{'greenweb-I':14s} {'(dynamic)':>13s} {green.active_energy_j*1000:12.1f} "
        f"{green.mean_violation_pct:7.2f}"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# HTML dashboard (used by `repro serve`'s GET /jobs/{id}/report)
# ----------------------------------------------------------------------

#: Dashboard styling: roles as CSS custom properties, light and dark
#: values both selected against their surface (not an automatic flip).
#: Series hues follow the measure, not the row: blue for energy
#: magnitude, orange for QoS violations, everywhere they appear.
_FLEET_CSS = """
.viz-root { color-scheme: light;
  --surface-1: #fcfcfb; --surface-2: #f1f0ee; --border: #dcdad5;
  --text-primary: #0b0b0b; --text-secondary: #52514e;
  --energy: #2a78d6; --violation: #eb6834; }
@media (prefers-color-scheme: dark) { .viz-root { color-scheme: dark;
  --surface-1: #1a1a19; --surface-2: #242422; --border: #3a3935;
  --text-primary: #ffffff; --text-secondary: #c3c2b7;
  --energy: #3987e5; --violation: #d95926; } }
.viz-root { background: var(--surface-1); color: var(--text-primary);
  font: 14px/1.45 system-ui, sans-serif; margin: 0; padding: 24px;
  max-width: 72rem; }
.viz-root h1 { font-size: 20px; margin: 0 0 4px; }
.viz-root h2 { font-size: 15px; margin: 28px 0 8px; }
.viz-root .sub { color: var(--text-secondary); margin: 0 0 16px; }
.viz-root .tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.viz-root .tile { background: var(--surface-2); border-radius: 8px;
  padding: 10px 14px; min-width: 9rem; }
.viz-root .tile .v { font-size: 20px; font-variant-numeric: tabular-nums; }
.viz-root .tile .k { color: var(--text-secondary); font-size: 12px; }
.viz-root table { border-collapse: collapse; width: 100%;
  font-variant-numeric: tabular-nums; }
.viz-root th { text-align: left; color: var(--text-secondary);
  font-weight: 500; font-size: 12px; }
.viz-root th, .viz-root td { padding: 4px 10px 4px 0;
  border-bottom: 1px solid var(--border); }
.viz-root td.num { text-align: right; white-space: nowrap; }
.viz-root .bar { display: inline-block; vertical-align: middle;
  height: 10px; border-radius: 0 4px 4px 0; min-width: 2px; }
.viz-root .bar.energy { background: var(--energy); }
.viz-root .bar.violation { background: var(--violation); }
.viz-root .barcell { width: 30%; }
.viz-root .hist { display: flex; align-items: flex-end; gap: 2px;
  height: 90px; margin: 6px 0 2px; }
.viz-root .hist .col { flex: 1; background: var(--energy);
  border-radius: 4px 4px 0 0; min-height: 1px; }
.viz-root .hist-x { display: flex; justify-content: space-between;
  color: var(--text-secondary); font-size: 11px; }
.viz-root .warn { color: var(--violation); }
"""


def _esc(value: object) -> str:
    return _html.escape(str(value), quote=True)


def _bar_html(value: float, top: float, kind: str, label: str) -> str:
    """One horizontal data bar with its direct value label alongside.

    The label is real text in ink tokens (never bar-colored) so every
    value is readable without relying on bar length or hue.
    """
    width = 0.0 if top <= 0 else 100.0 * min(value, top) / top
    return (
        f'<span class="bar {kind}" style="width:{width:.1f}%" '
        f'title="{_esc(label)}"></span> {_esc(label)}'
    )


def _group_rows_html(groups: dict, label_header: str) -> str:
    """A per-group comparison table (policies or applications)."""
    if not groups:
        return "<p class='sub'>no sessions aggregated yet</p>"
    top_energy = max(g["energy_j"]["mean"] for g in groups.values())
    top_violation = max(
        max(g["violation_pct"]["mean"] for g in groups.values()), 1e-12
    )
    rows = []
    for name in sorted(groups):
        group = groups[name]
        sessions = group["sessions"]
        switches = group.get("freq_switches", 0)
        migrations = group.get("migrations", 0)
        per_session = (switches + migrations) / sessions if sessions else 0.0
        mean_energy = group["energy_j"]["mean"]
        mean_violation = group["violation_pct"]["mean"]
        energy_bar = _bar_html(mean_energy, top_energy, "energy", f"{mean_energy:.3f} J")
        violation_bar = _bar_html(
            mean_violation, top_violation, "violation", f"{mean_violation:.2f}%"
        )
        rows.append(
            "<tr>"
            f"<td>{_esc(name)}</td>"
            f'<td class="num">{sessions}</td>'
            f'<td class="barcell">{energy_bar}</td>'
            f'<td class="barcell">{violation_bar}</td>'
            f'<td class="num" title="{switches} frequency switches + '
            f'{migrations} migrations">{per_session:.1f}</td>'
            "</tr>"
        )
    return (
        f"<table><tr><th>{_esc(label_header)}</th><th>sessions</th>"
        "<th>mean energy / session</th><th>mean QoS violation</th>"
        "<th>switches / session</th></tr>" + "".join(rows) + "</table>"
    )


def _cells_html(by_cell: dict) -> str:
    """Policy comparison per (app, scenario): bars normalised within
    each app x scenario group, so policies serving the same workload
    are directly comparable."""
    if not by_cell:
        return "<p class='sub'>no sessions aggregated yet</p>"
    parsed = []
    for key in sorted(by_cell):
        # "|" is reserved: spec parsing and cell_key() both reject it in
        # every field, so this split is unambiguous.
        app, scenario, governor = key.split("|", 2)
        parsed.append((app, scenario, governor, by_cell[key]))
    tops: dict = {}
    for app, scenario, _governor, group in parsed:
        bucket = tops.setdefault((app, scenario), {"energy": 0.0, "violation": 1e-12})
        bucket["energy"] = max(bucket["energy"], group["energy_j"]["mean"])
        bucket["violation"] = max(bucket["violation"], group["violation_pct"]["mean"])
    rows = []
    previous = None
    for app, scenario, governor, group in parsed:
        sessions = group["sessions"]
        switches = group.get("freq_switches", 0) + group.get("migrations", 0)
        per_session = switches / sessions if sessions else 0.0
        top = tops[(app, scenario)]
        workload = f"{app} / {scenario}"
        mean_energy = group["energy_j"]["mean"]
        mean_violation = group["violation_pct"]["mean"]
        energy_bar = _bar_html(
            mean_energy, top["energy"], "energy", f"{mean_energy:.3f} J"
        )
        violation_bar = _bar_html(
            mean_violation, top["violation"], "violation", f"{mean_violation:.2f}%"
        )
        rows.append(
            "<tr>"
            f"<td>{_esc(workload) if workload != previous else ''}</td>"
            f"<td>{_esc(governor)}</td>"
            f'<td class="num">{sessions}</td>'
            f'<td class="barcell">{energy_bar}</td>'
            f'<td class="barcell">{violation_bar}</td>'
            f'<td class="num">{per_session:.1f}</td>'
            "</tr>"
        )
        previous = workload
    return (
        "<table><tr><th>app / scenario</th><th>policy</th><th>sessions</th>"
        "<th>mean energy / session</th><th>mean QoS violation</th>"
        "<th>switches / session</th></tr>" + "".join(rows) + "</table>"
    )


def _hist_html(hist: dict, unit: str) -> str:
    """A fixed-bucket histogram as a column chart with a table fallback
    in the title attributes (counts are also exact in the tooltip)."""
    counts = hist["counts"]
    top = max(max(counts), 1)
    width = (hist["hi"] - hist["lo"]) / hist["buckets"]
    cols = []
    for index, count in enumerate(counts):
        lo = hist["lo"] + index * width
        height = 100.0 * count / top
        cols.append(
            f'<div class="col" style="height:{max(height, 1.0):.1f}%'
            f'{";opacity:.25" if count == 0 else ""}" '
            f'title="[{lo:g}, {lo + width:g}) {unit}: {count} sessions"></div>'
        )
    extra = []
    if hist["underflow"]:
        extra.append(f"{hist['underflow']} below {hist['lo']:g}")
    if hist["overflow"]:
        extra.append(f"{hist['overflow']} above {hist['hi']:g}")
    note = f'<p class="sub">{_esc("; ".join(extra))}</p>' if extra else ""
    return (
        f'<div class="hist">{"".join(cols)}</div>'
        f'<div class="hist-x"><span>{hist["lo"]:g}</span>'
        f"<span>{_esc(unit)}</span><span>{hist['hi']:g}</span></div>" + note
    )


def render_fleet_html(data: dict, title: str, status_line: str = "") -> str:
    """The fleet dashboard: one self-contained HTML document.

    ``data`` is :meth:`repro.fleet.FleetResult.to_dict` (or the same
    shape built from a live prefix aggregate): ``fleet`` facts, ``run``
    execution facts, and the mergeable ``aggregate``.  Stdlib-only, no
    scripts, no external assets — safe to serve from the daemon and to
    save as a report artifact.
    """
    fleet = data.get("fleet", {})
    run = data.get("run", {})
    aggregate = data["aggregate"]
    energy = aggregate["energy_j"]
    violation = aggregate["violation_pct"]

    tiles = [
        (f"{aggregate['sessions']}", "sessions aggregated"),
        (f"{energy['sum']:.2f} J", "total energy"),
        (f"{energy['mean']:.3f} J", "mean energy / session"),
        (f"{violation['mean']:.2f}%", "mean QoS violation"),
        (f"{aggregate['frames']}", "frames"),
        (f"{aggregate['inputs']}", "inputs"),
        (
            f"{aggregate.get('freq_switches', 0)} + {aggregate.get('migrations', 0)}",
            "freq switches + migrations",
        ),
    ]
    tiles_html = "".join(
        f'<div class="tile"><div class="v">{_esc(value)}</div>'
        f'<div class="k">{_esc(key)}</div></div>'
        for value, key in tiles
    )

    failed = run.get("failed_shards", [])
    failed_html = ""
    if failed:
        items = "".join(
            f"<li>shard {_esc(f['shard'])} after {_esc(f['attempts'])} "
            f"attempt(s): {_esc(f['error'])}</li>"
            for f in failed
        )
        failed_html = (
            f'<h2 class="warn">failed shards ({len(failed)})</h2><ul>{items}</ul>'
        )

    facts = (
        f"population: {fleet.get('sessions', '?')} sessions, "
        f"seed {fleet.get('seed', '?')}, "
        f"{fleet.get('shards', '?')} shards x <= {fleet.get('shard_size', '?')}; "
        f"completed {run.get('sessions_completed', 0)} sessions, "
        f"{run.get('retries', 0)} retries"
    )

    return f"""<!doctype html>
<html><head><meta charset="utf-8">
<title>{_esc(title)}</title>
<style>{_FLEET_CSS}</style>
</head><body class="viz-root">
<h1>{_esc(title)}</h1>
<p class="sub">{_esc(status_line)}</p>
<p class="sub">{_esc(facts)}</p>
<div class="tiles">{tiles_html}</div>
{failed_html}
<h2>Policies</h2>
{_group_rows_html(aggregate.get("by_governor", {}), "policy")}
<h2>Applications</h2>
{_group_rows_html(aggregate.get("by_app", {}), "app")}
<h2>Policy comparison per app &times; scenario</h2>
{_cells_html(aggregate.get("by_cell", {}))}
<h2>Energy per session (J)</h2>
{_hist_html(aggregate["energy_hist"], "J")}
<h2>QoS violation per session (%)</h2>
{_hist_html(aggregate["violation_hist"], "%")}
<h2>Input latency per session (ms)</h2>
{_hist_html(aggregate["latency_hist"], "ms")}
</body></html>
"""
