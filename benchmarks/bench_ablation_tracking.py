"""Ablation (Sec. 6.3): frame-latency tracking vs. callback latency.

The paper motivates its Fig. 8 tracker by noting prior work "is
concerned only with the callback latency, which contributes to only a
portion of frame latency".  This ablation measures both for the same
run and quantifies the gap, and also validates the tracker under the
two Fig. 8 complexities: interleaved inputs and VSync batching.
"""

import statistics

from conftest import run_once

from repro.browser.engine import Browser
from repro.core.annotations import AnnotationRegistry
from repro.policies import POLICIES
from repro.hardware.platform import odroid_xu_e
from repro.scenarios import build_live_scenario
from repro.workloads.interactions import InteractionDriver
from repro.workloads.registry import build_app


def _run_msn_and_collect():
    bundle = build_app("msn")
    platform = odroid_xu_e(record_power_intervals=False)
    registry = AnnotationRegistry.from_stylesheet(bundle.page.stylesheet)
    scenario = build_live_scenario("imperceptible", platform)
    runtime = POLICIES.build("greenweb", platform, registry, scenario)
    browser = Browser(platform, bundle.page, policy=runtime)
    driver = InteractionDriver(browser)
    driver.schedule(bundle.micro_trace)
    platform.run_for(bundle.micro_trace.duration_us + 4_000_000)

    callback_latency = {}
    for record in platform.trace.filter(category="callback", name="finished"):
        uid = record["uid"]
        callback_latency[uid] = max(callback_latency.get(uid, 0), record["latency_us"])

    pairs = []
    for record in browser.tracker.records:
        if record.frame_count and record.uid in callback_latency:
            pairs.append((callback_latency[record.uid], record.first_frame_latency_us))
    return pairs


def test_ablation_callback_vs_frame_latency(benchmark, record_figure):
    pairs = run_once(benchmark, _run_msn_and_collect)
    assert pairs, "expected frame-producing events"

    ratios = [cb / frame for cb, frame in pairs]
    mean_share = statistics.mean(ratios)
    lines = [
        "Ablation (Sec. 6.3): callback latency vs. true frame latency (MSN taps)",
        f"{'callback_us':>12s} {'frame_us':>10s} {'share':>7s}",
    ]
    for cb, frame in pairs:
        lines.append(f"{cb:12d} {frame:10d} {cb / frame:7.2%}")
    lines.append(
        f"mean callback share of frame latency: {mean_share:.1%} "
        f"(paper: callback latency is only a portion of frame latency)"
    )
    record_figure("ablation_tracking", "\n".join(lines))

    # The paper's claim: callback latency systematically underestimates
    # frame latency (style/layout/paint/composite + VSync alignment).
    assert all(cb < frame for cb, frame in pairs)
    assert mean_share < 0.95
