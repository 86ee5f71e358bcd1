"""Ablations (Secs. 6.2 / 8): the runtime's prediction machinery.

Knobs exercised:

* **EWMA model fine-tuning on/off** — the paper's "uses measured frame
  latencies as feedback information to fine-tune the prediction";
  without it the runtime relies on reactive boosts alone, which the
  paper suggests handles frame-complexity surges poorly (Sec. 7.2's
  W3Schools/Cnet discussion and the Sec. 8 profiling-guided-prediction
  suggestion).
* **Recalibration threshold sweep** — how many consecutive
  mispredictions before new profiling runs (Sec. 6.2).
* **Governor panorama** — GreenWeb against all baselines including the
  non-paper reference governors (powersave = energy floor with broken
  QoS; ondemand = utilization-reactive).
"""


from conftest import run_once

from repro.evaluation.runner import run_workload

U = "usable"
I = "imperceptible"


def _ewma_ablation():
    results = {}
    for label, spec in (
        ("ewma-on", "greenweb(ewma_model_update=true)"),
        ("ewma-off", "greenweb(ewma_model_update=false)"),
    ):
        results[label] = run_workload("w3schools", spec, U, "micro")
    return results


def test_ablation_ewma_model_update(benchmark, record_figure):
    results = run_once(benchmark, _ewma_ablation)
    lines = ["Ablation: EWMA prediction fine-tuning (W3Schools, usable scenario)"]
    for label, run in results.items():
        lines.append(
            f"  {label:10s} violations={run.mean_violation_pct:6.2f}% "
            f"energy={run.active_energy_j * 1000:7.1f} mJ "
            f"recalibrations={run.runtime_stats['recalibrations']}"
        )
    record_figure("ablation_ewma", "\n".join(lines))

    # Both modes must remain functional; fine-tuning must not be
    # catastrophically worse on either axis.
    for run in results.values():
        assert run.frames > 50


def _recalibration_sweep():
    rows = []
    for threshold in (1, 3, 8):
        run = run_workload(
            "cnet", f"greenweb(recalibration_threshold={threshold})", U, "micro"
        )
        rows.append((threshold, run))
    return rows


def test_ablation_recalibration_threshold(benchmark, record_figure):
    rows = run_once(benchmark, _recalibration_sweep)
    lines = ["Ablation: recalibration threshold (Cnet, usable scenario)"]
    for threshold, run in rows:
        lines.append(
            f"  threshold={threshold}: violations={run.mean_violation_pct:6.2f}% "
            f"profiling_frames={run.runtime_stats['profiling_frames']:3d} "
            f"recalibrations={run.runtime_stats['recalibrations']}"
        )
    record_figure("ablation_recalibration", "\n".join(lines))

    # A hair-trigger threshold must re-profile at least as often as a
    # lenient one.
    profiling = {t: run.runtime_stats["profiling_frames"] for t, run in rows}
    assert profiling[1] >= profiling[8]


def _governor_panorama():
    results = {}
    for governor in ("perf", "interactive", "ondemand", "greenweb", "powersave"):
        results[governor] = run_workload("cnet", governor, I, "micro")
    return results


def test_ablation_governor_panorama(benchmark, record_figure):
    results = run_once(benchmark, _governor_panorama)
    lines = ["Governor panorama (Cnet micro, imperceptible targets)"]
    for governor, run in results.items():
        lines.append(
            f"  {governor:12s} energy={run.active_energy_j * 1000:8.1f} mJ "
            f"violations={run.mean_violation_pct:7.2f}%"
        )
    record_figure("ablation_governors", "\n".join(lines))

    # Energy ordering: powersave <= greenweb < perf.
    assert results["powersave"].active_energy_j <= results["greenweb"].active_energy_j
    assert results["greenweb"].active_energy_j < results["perf"].active_energy_j
    # QoS ordering: powersave is the broken-QoS floor.
    assert (
        results["powersave"].mean_violation_pct
        > results["greenweb"].mean_violation_pct
    )


def _profiling_mode_ablation():
    results = {}
    for label, spec in (
        ("2-run + IPC derivation", "greenweb"),
        ("4-run (both clusters)", "greenweb(profile_both_clusters=true)"),
    ):
        results[label] = run_workload("cnet", spec, U, "micro")
    return results


def test_ablation_profiling_mode(benchmark, record_figure):
    """Sec. 6.2: the paper profiles twice and builds per-cluster models.
    Two designs are possible: derive the little model from the big fit
    via the statically profiled IPC ratio (2 profiling runs), or
    profile the little cluster independently (4 runs).  Independent
    profiling buys a more accurate little model at the cost of extra
    profiling frames at the little cluster's minimum frequency — which
    is where profiling violations come from."""
    results = run_once(benchmark, _profiling_mode_ablation)
    lines = ["Ablation: profiling mode (Cnet, usable scenario)"]
    for label, run in results.items():
        lines.append(
            f"  {label:24s} violations={run.mean_violation_pct:6.2f}% "
            f"energy={run.active_energy_j*1000:7.1f} mJ "
            f"profiling_frames={run.runtime_stats['profiling_frames']}"
        )
    record_figure("ablation_profiling_mode", "\n".join(lines))

    two_run = results["2-run + IPC derivation"]
    four_run = results["4-run (both clusters)"]
    # Independent profiling costs strictly more profiling frames.
    assert (
        four_run.runtime_stats["profiling_frames"]
        > two_run.runtime_stats["profiling_frames"]
    )
    # Both modes remain functional.
    assert four_run.frames > 50 and two_run.frames > 50


def _surge_aware_ablation():
    results = {}
    for label, spec in (
        ("ewma mean", "greenweb"),
        ("surge-aware p90", "greenweb(surge_aware=true)"),
    ):
        results[label] = run_workload("w3schools", spec, U, "micro")
    return results


def test_ablation_surge_aware_prediction(benchmark, record_figure):
    """Sec. 7.2/8: "the GreenWeb runtime could be better enhanced to
    capture the pattern of frame fluctuation in an event, potentially
    through offline profiling."  The surge-aware predictor schedules a
    fluctuating key for a high percentile of its recent frame costs
    instead of their mean: fewer usable-mode violations on W3Schools'
    surging animation, at an energy premium."""
    results = run_once(benchmark, _surge_aware_ablation)
    lines = ["Ablation: surge-aware prediction (W3Schools, usable scenario)"]
    for label, run in results.items():
        lines.append(
            f"  {label:18s} violations={run.mean_violation_pct:6.2f}% "
            f"energy={run.active_energy_j*1000:7.1f} mJ"
        )
    record_figure("ablation_surge_aware", "\n".join(lines))

    mean_mode = results["ewma mean"]
    surge_mode = results["surge-aware p90"]
    assert surge_mode.mean_violation_pct < mean_mode.mean_violation_pct
    assert surge_mode.active_energy_j > mean_mode.active_energy_j
