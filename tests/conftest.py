"""Shared builders and fixtures for the test suite.

The integration tests all drive the same miniature stack — an
``odroid_xu_e`` platform, a one-page browser with two annotated
elements, and a policy built from the page's stylesheet — and the fleet
tests all exercise the same small two-cell mix.  Those builders live
here (importable as ``tests.conftest``) so every suite constructs them
identically instead of drifting apart in per-file copies.

Markers
-------
``slow`` marks long-running tests (the exhaustive differential parity
sweep).  They always run in CI; deselect locally with ``-m "not slow"``.
"""

import json
import os

import pytest

from repro.browser import Browser, Page
from repro.core import AnnotationRegistry, GreenWebRuntime
from repro.evaluation.runner import (
    SessionExecution,
    run_result_to_dict,
    run_workload_job,
)
from repro.fleet import parse_mix
from repro.hardware import odroid_xu_e
from repro.scenarios import build_live_scenario
from repro.web import Callback, parse_html
from repro.workloads.registry import build_app

#: A page with one single/short-annotated button and one
#: continuous-annotated element — the smallest markup that exercises
#: both QoS annotation kinds.
MARKUP = """
<style>
  #btn:QoS { onclick-qos: single, short; }
  #anim:QoS { ontouchstart-qos: continuous; }
</style>
<div id="btn"></div>
<div id="anim"></div>
"""

#: Small, fast two-cell population mix for fleet tests.
FAST_MIX = parse_mix("todo:greenweb,cnet:perf")

#: Golden scalar fingerprints for the differential batch-parity suite.
PARITY_GOLDENS_PATH = os.path.join(
    os.path.dirname(__file__), "data", "batch_parity_fingerprints.json"
)


def build(policy_factory, scenario="imperceptible", markup=MARKUP):
    """Assemble (browser, platform, policy) for one session over
    ``markup`` with the policy produced by ``policy_factory``, under a
    fresh live ``scenario`` (a scenario spec)."""
    platform = odroid_xu_e()
    document, sheet = parse_html(markup)
    page = Page(name="t", document=document, stylesheet=sheet)
    policy = policy_factory(platform, sheet, build_live_scenario(scenario, platform))
    browser = Browser(platform, page, policy=policy)
    return browser, platform, policy


def greenweb_factory(**kwargs):
    """A ``build``-compatible factory for a GreenWeb runtime with the
    given constructor overrides."""

    def factory(platform, sheet, scenario):
        registry = AnnotationRegistry.from_stylesheet(sheet)
        return GreenWebRuntime(platform, registry, scenario, **kwargs)

    return factory


def light_tap_callback():
    """A light event handler: 400k cycles of script then a dirty mark."""

    def body(ctx):
        ctx.do_work(400_000)
        ctx.mark_dirty(0.3)

    return Callback(body, "lightTap")


def run_cell(job: dict, leg: str) -> dict:
    """One ``run_workload_job``-shaped cell as its plain result dict;
    ``leg`` names the golden leg.

    ``"gated"`` is ``run_workload_job`` itself, a session with no trace;
    ``"full"`` builds the same session through :class:`SessionExecution`
    with a trace attached — so a golden keyed ``...:full`` really pins a
    traced run.
    """
    if leg == "gated":
        return run_workload_job(job)
    assert leg == "full", leg
    execution = SessionExecution(
        build_app(job["app"], job["seed"]), job["governor"],
        job.get("scenario", "imperceptible"), trace_kind=job["trace_kind"],
        seed=job["seed"], settle_s=job["settle_s"], trace=True,
    )
    execution.run()
    assert len(execution.platform.trace) > 0
    return run_result_to_dict(execution.finish())


@pytest.fixture(scope="session")
def parity_goldens():
    """The checked-in scalar golden fingerprints (see
    ``scripts/gen_parity_fingerprints.py``)."""
    with open(PARITY_GOLDENS_PATH) as handle:
        return json.load(handle)
