"""Whole-session invariants: every live policy under every builtin
scenario.

The paper's definitions imply properties every :class:`RunResult` must
have, whatever the policy or scenario:

* configuration residency is a distribution: it sums to 1 over the run,
  and so does the residency over input-active windows when there are
  any;
* active-window energy and time are parts of the whole: 0 <= active
  energy <= energy and 0 <= active time <= duration;
* a thermal cap holds: no configuration applied strictly inside an
  engagement runs the capped cluster above the cap, and the
  configuration in force one frequency-switch overhead after the cap
  engages is within it (the switch that enforces the cap takes that
  long).

Each session runs on the todo and cnet micro traces (seed 0) with a
residency fold attached; ``thermal(cap_mhz=800,trip_ms=0,hot_load=0.0)``
engages its cap on the first thermal tick, so the cap check is never
vacuous.
"""

import pytest

from repro.evaluation.folds import ConfigTimelineFold
from repro.evaluation.runner import SessionExecution
from repro.hardware.dvfs import FREQ_SWITCH_OVERHEAD_US
from repro.policies import POLICIES
from repro.scenarios import SCENARIOS
from repro.workloads.registry import build_app

LIVE_POLICIES = tuple(
    name for name in POLICIES.names() if POLICIES.get(name).posthoc is None
)
ENGAGING_CAP = "thermal(cap_mhz=800,trip_ms=0,hot_load=0.0)"
SCENARIO_SPECS = (*SCENARIOS.names(), ENGAGING_CAP)
APPS = ("todo", "cnet")


def run_observed(app, policy, scenario):
    """The finished session, its result, the configuration in force at
    the start, and a residency fold that observed it."""
    fold = ConfigTimelineFold()
    execution = SessionExecution(build_app(app, 0), policy, scenario, trace_kind="micro")
    initial = execution.platform.config
    execution.platform.attach(fold)
    execution.run()
    return execution, execution.finish(), initial, fold


def assert_cap_held(execution, initial, fold):
    scenario = execution.scenario
    cluster = execution.platform.config_table.fastest_cluster
    end_of_run = execution.platform.kernel.now_us
    timeline = [(0, initial), *fold.applied]

    def over_cap(config):
        return config.cluster == cluster and config.freq_mhz > scenario.cap_mhz

    for start, end in scenario.engagements:
        end = end_of_run if end is None else end
        inside = [(t, c) for t, c in timeline if start < t < end and over_cap(c)]
        assert not inside, (start, end, inside)
        settled = start + FREQ_SWITCH_OVERHEAD_US
        if settled < end:
            in_force = [c for t, c in timeline if t <= settled][-1]
            assert not over_cap(in_force), (start, in_force)


@pytest.mark.parametrize("scenario", SCENARIO_SPECS)
@pytest.mark.parametrize("policy", LIVE_POLICIES)
@pytest.mark.parametrize("app", APPS)
def test_run_result_invariants(app, policy, scenario):
    execution, result, initial, fold = run_observed(app, policy, scenario)

    assert sum(result.config_residency.values()) == pytest.approx(1.0, abs=1e-9)
    if result.active_config_residency:
        assert sum(result.active_config_residency.values()) == pytest.approx(1.0, abs=1e-9)
    assert 0.0 <= result.active_energy_j <= result.energy_j
    assert 0.0 <= result.active_time_s <= result.duration_s

    if SCENARIOS.normalize(scenario).name == "thermal":
        assert_cap_held(execution, initial, fold)
        if scenario == ENGAGING_CAP:
            assert execution.scenario.engagements
