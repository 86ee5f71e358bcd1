"""Ablation (Sec. 7.3 / Fig. 12 discussion): fast voltage regulators.

"The CPU frequency change dwarfs core migrations and dominates the
configuration switching.  Thus, fast DVFS is desired.  Our results
suggest that a fast on-chip voltage regulator that is increasingly
prevalent in server processors is also beneficial in mobile CPUs."

This ablation compares the default platform (100 us frequency-switch
overhead) with the IVR variant (5 us) on the most switch-happy
workload, and also verifies the paper's baseline observation that at
100 us/20 us the overhead has "minimal performance impact" against
millisecond-scale QoS targets.  Both cells run through the runner's
session builder; the IVR cell sets its ``fast_voltage_regulators``
flag.
"""

from conftest import greenweb_session, run_once


def _run(fast_vr: bool):
    execution, result = greenweb_session(
        "w3schools", "imperceptible", fast_voltage_regulators=fast_vr
    )
    latencies = execution.browser.tracker.all_frame_latencies_us()
    mean_latency = sum(latencies) / len(latencies) if latencies else 0
    return {
        "energy_j": result.energy_j,
        "mean_frame_latency_us": mean_latency,
        "freq_switches": result.freq_switches,
        "migrations": result.migrations,
        "frames": result.frames,
    }


def _matrix():
    return {"default (100us)": _run(False), "ivr (5us)": _run(True)}


def test_ablation_fast_voltage_regulators(benchmark, record_figure):
    results = run_once(benchmark, _matrix)
    lines = ["Ablation: DVFS switching overhead (W3Schools micro, imperceptible)"]
    for label, r in results.items():
        lines.append(
            f"  {label:16s} energy={r['energy_j']*1000:8.1f} mJ "
            f"mean-frame={r['mean_frame_latency_us']/1000:6.2f} ms "
            f"switches={r['freq_switches']}+{r['migrations']} frames={r['frames']}"
        )
    record_figure("ablation_ivr", "\n".join(lines))

    default = results["default (100us)"]
    ivr = results["ivr (5us)"]
    # The paper's baseline point: 100 us overheads are already small
    # against ms-scale targets — IVRs shave latency but by little.
    assert ivr["mean_frame_latency_us"] <= default["mean_frame_latency_us"] * 1.02
    relative_gain = 1 - ivr["mean_frame_latency_us"] / default["mean_frame_latency_us"]
    assert relative_gain < 0.15  # "minimal performance impact" at 100 us
