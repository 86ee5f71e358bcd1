"""Ablation (Sec. 6.2): how accurate is the runtime's fitted model?

The paper's runtime trusts a two-sample fit of Eq. 1 plus feedback.
This benchmark quantifies the model's stable-phase prediction error per
workload class — steady animations (Craigslist) should be tight, while
surge-prone animations (W3Schools) should show the fat error tail that
motivates the paper's Sec. 8 suggestion of profiling-guided prediction.
"""

from conftest import run_once

from repro.browser.engine import Browser
from repro.core.annotations import AnnotationRegistry
from repro.policies import POLICIES
from repro.evaluation.folds import PredictionAccuracyFold
from repro.hardware.platform import odroid_xu_e
from repro.scenarios import build_live_scenario
from repro.workloads.interactions import InteractionDriver
from repro.workloads.registry import build_app

APPS = ("craigslist", "paperjs", "w3schools", "msn")


def _accuracy_for(app: str):
    bundle = build_app(app)
    platform = odroid_xu_e(record_power_intervals=False)
    registry = AnnotationRegistry.from_stylesheet(bundle.page.stylesheet)
    scenario = build_live_scenario("usable", platform)
    runtime = POLICIES.build("greenweb", platform, registry, scenario)
    browser = Browser(platform, bundle.page, policy=runtime)
    InteractionDriver(browser).schedule(bundle.micro_trace)
    platform.run_for(bundle.micro_trace.duration_us + 4_000_000)
    return PredictionAccuracyFold().replay(platform.trace).result()


def _matrix():
    return {app: _accuracy_for(app) for app in APPS}


def test_ablation_prediction_accuracy(benchmark, record_figure):
    results = run_once(benchmark, _matrix)
    lines = [
        "Ablation: stable-phase prediction accuracy (usable scenario)",
        f"{'app':12s} {'pairs':>6s} {'mean |err|':>10s} {'p90 |err|':>10s} {'under %':>8s}",
    ]
    for app, acc in results.items():
        lines.append(
            f"{app:12s} {acc.pairs:6d} {acc.mean_abs_rel_error:10.1%} "
            f"{acc.p90_abs_rel_error:10.1%} {acc.under_prediction_rate:8.1%}"
        )
    record_figure("ablation_prediction", "\n".join(lines))

    for app, acc in results.items():
        # Continuous apps produce hundreds of pairs; MSN's single taps
        # produce one stable pair per post-profiling event.
        assert acc.pairs >= 4, f"{app}: too few prediction pairs"
    # Steady scroll frames predict more tightly than surge-prone panes.
    assert (
        results["craigslist"].mean_abs_rel_error
        < results["w3schools"].mean_abs_rel_error
    )
    # Overall the model is usable: mean error well under 100%.
    for acc in results.values():
        assert acc.mean_abs_rel_error < 1.0
