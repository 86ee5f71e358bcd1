"""Ablation (Sec. 8): multi-application environments.

"We believe that this ACMP-based runtime design is also applicable
when multiple mobile applications are concurrently consuming CPU
resources ... the GreenWeb runtime system will still have a large
trade-off space to schedule, although with fewer resources."

This benchmark runs the Cnet micro interaction under GreenWeb with and
without a background application and checks the paper's claim: QoS
holds, at an energy premium that reflects the background work riding
the foreground's configuration choices.  The background application is
the ``bgload`` scenario: a music-decode-like 4-Mcycle burst every 25 ms
on a dedicated context.  Both cells run through the runner's session
builder.
"""

from conftest import greenweb_session, run_once

#: bgload sizes its chunk in little-core time: 8/15 of a 25 ms period
#: at the A7's 600 MHz and 0.5 IPC is exactly 4 Mcycles.
BACKGROUND = f"bgload(duty={8 / 15!r},period_ms=25)"


def _run(scenario: str):
    execution, result = greenweb_session("cnet", scenario)
    return {
        "energy_j": result.energy_j,
        "violations_pct": result.mean_violation_pct,
        "frames": result.frames,
        "bursts": execution.scenario.periods if scenario == BACKGROUND else 0,
    }


def _matrix():
    return {
        "foreground only": _run("imperceptible"),
        "with background app": _run(BACKGROUND),
    }


def test_ablation_multi_app_contention(benchmark, record_figure):
    results = run_once(benchmark, _matrix)
    lines = ["Ablation (Sec. 8): multi-app contention (Cnet, imperceptible)"]
    for label, r in results.items():
        lines.append(
            f"  {label:22s} energy={r['energy_j']*1000:8.1f} mJ "
            f"violations={r['violations_pct']:6.2f}% frames={r['frames']} "
            f"bg-bursts={r['bursts']}"
        )
    record_figure("ablation_contention", "\n".join(lines))

    alone = results["foreground only"]
    contended = results["with background app"]
    assert contended["bursts"] > 300
    # Energy rises with the extra work...
    assert contended["energy_j"] > alone["energy_j"]
    # ...but QoS does not collapse (the Sec. 8 claim).
    assert contended["violations_pct"] < alone["violations_pct"] + 5.0
