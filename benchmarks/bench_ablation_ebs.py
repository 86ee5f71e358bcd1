"""Ablation (Sec. 9): GreenWeb vs. annotation-free event-based
scheduling (EBS, Zhu et al. HPCA 2015).

The paper argues EBS's runtime-measured latency is "merely an artifact
of a particular mobile system's capability", while GreenWeb
annotations "express inherent user QoS expectations".  This benchmark
quantifies the two failure modes on the apps where they bite:

* **Cnet / MSN** (tight inherent targets): EBS under-delivers QoS.
* **LZMA-JS / CamanJS** (loose inherent targets): EBS over-delivers
  performance and wastes energy.
"""

from conftest import run_once

from repro.evaluation.runner import run_workload

I = "imperceptible"
APPS = ("cnet", "msn", "lzma_js", "camanjs")


def _matrix():
    out = {}
    for app in APPS:
        out[app] = {
            "greenweb": run_workload(app, "greenweb", I, "micro"),
            "ebs": run_workload(app, "ebs", I, "micro"),
        }
    return out


def test_ablation_greenweb_vs_ebs(benchmark, record_figure):
    results = run_once(benchmark, _matrix)
    lines = [
        "Ablation (Sec. 9): GreenWeb vs annotation-free EBS (imperceptible targets)",
        f"{'app':10s} {'policy':10s} {'energy (mJ)':>12s} {'violations':>11s}",
    ]
    for app, runs in results.items():
        for policy, run in runs.items():
            lines.append(
                f"{app:10s} {policy:10s} {run.active_energy_j*1000:12.1f} "
                f"{run.mean_violation_pct:10.2f}%"
            )
    record_figure("ablation_ebs", "\n".join(lines))

    # Failure mode 1: EBS violates tight inherent targets.
    for app in ("cnet", "msn"):
        assert (
            results[app]["ebs"].mean_violation_pct
            > results[app]["greenweb"].mean_violation_pct
        )
    # Failure mode 2: EBS wastes energy on latency-tolerant events.
    for app in ("lzma_js", "camanjs"):
        assert (
            results[app]["ebs"].active_energy_j
            > results[app]["greenweb"].active_energy_j
        )
