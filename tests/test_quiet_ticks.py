"""Quiet-tick elision is exact: an eliding run equals one that never elides.

The kernel applies a quiet sampler's ticks in closed form instead of
firing them (``Kernel.every(..., closed_form=)``).  Each session cell
here runs twice, once as shipped and once with every sampler's
``quiet_ticks`` patched to 0, so no tick is elided; the result bytes,
the retained trace stream and the task spans must match.  The kernel
property drives random periodic series with random quiet windows and
one-shot events on colliding timestamps, and checks the action log
against a kernel that never elides.
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.governors import InteractiveGovernor, OndemandGovernor
from repro.evaluation.runner import SessionExecution, run_result_to_dict
from repro.scenarios.builtin import ThermalScenario
from repro.sim.kernel import QUIET_UNTIL_WOKEN, Kernel
from repro.workloads.registry import build_app

SAMPLERS = (OndemandGovernor, InteractiveGovernor, ThermalScenario)

#: (app, policy, scenario, trace kind, seed)
CELLS = [
    ("bbc", "ondemand", "thermal", "micro", 1),
    ("camanjs", "ondemand", "bgload", "micro", 1),
    ("cnet", "interactive", "imperceptible", "full", 1),
    ("google", "ondemand", "battery", "micro", 1),
    # Engages and lifts the cap nine times, with engaged ticks elided.
    ("bbc", "ondemand", "thermal(trip_ms=50,hysteresis_ms=300,hot_load=0.2)", "micro", 1),
    ("cnet", "greenweb", "thermal(cap_mhz=1100,trip_ms=50,hot_load=0.2)", "full", 0),
    # hot_load=0 makes every window hot: the scenario is never quiet.
    ("todo", "interactive", "thermal(trip_ms=25,hot_load=0)", "micro", 1),
]


def session(app, policy, scenario, trace_kind, seed):
    """(result bytes, trace records, task spans, kernel) of one cell."""
    execution = SessionExecution(
        build_app(app, seed), policy, scenario, trace_kind=trace_kind, seed=seed, trace=True
    )
    execution.platform.record_task_spans = True
    execution.run()
    result = json.dumps(run_result_to_dict(execution.finish()), sort_keys=True)
    records = [
        (record.time_us, record.category, record.name, record.data)
        for record in execution.platform.trace
    ]
    spans = [record for record in records if record[1] == "task"]
    return result, records, spans, execution.platform.kernel


@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: ":".join(map(str, cell)))
def test_elision_changes_nothing(monkeypatch, cell):
    result, records, spans, kernel = session(*cell)
    for sampler in SAMPLERS:
        monkeypatch.setattr(sampler, "quiet_ticks", lambda self: 0)
    plain_result, plain_records, plain_spans, plain_kernel = session(*cell)

    assert not plain_kernel.events_elided
    assert result == plain_result
    assert records == plain_records
    assert spans == plain_spans
    assert kernel.events_fired == plain_kernel.events_fired


def test_engaged_thermal_ticks_elide(monkeypatch):
    """The engaging cell elides thermal ticks while the cap is on."""
    elided_while_engaged = []
    skip_ticks = ThermalScenario.skip_ticks

    def counted(scenario, ticks):
        if scenario.engaged:
            elided_while_engaged.append(ticks)
        skip_ticks(scenario, ticks)

    monkeypatch.setattr(ThermalScenario, "skip_ticks", counted)
    execution = SessionExecution(
        build_app("bbc", 1), "ondemand", CELLS[4][2], trace_kind="micro", seed=1
    )
    execution.run()
    assert len(execution.scenario.engagements) == 9
    assert sum(elided_while_engaged) > 0


class World:
    """A toy platform: a level that one-shot events and loud ticks set,
    samplers that are quiet while it is 0, and one action log."""

    def __init__(self, kernel, elide, seed):
        self.kernel = kernel
        self.elide = elide
        self.rng = random.Random(seed)
        self.level = 0
        self.log = []
        self.samplers = []


class ToySampler:
    """Ticks every ``period`` µs.  While the world's level is 0 a tick
    only counts down to its next loud tick (``countdown``; None: never),
    which is the closed form; a loud tick logs, may change the level,
    schedule a one-shot event (at a colliding time) or cancel itself,
    and draws its next countdown."""

    def __init__(self, world, name, period, countdown):
        self.world = world
        self.name = name
        self.period = period
        self.countdown = countdown
        self.ticks = 0
        self.handle = world.kernel.every(period, self.tick, name, closed_form=self)
        world.samplers.append(self)

    def quiet_ticks(self):
        if not self.world.elide or self.world.level:
            return 0
        if self.countdown is None:
            return QUIET_UNTIL_WOKEN
        return self.countdown - 1

    def skip_ticks(self, ticks):
        self.ticks += ticks
        if self.countdown is not None:
            self.countdown -= ticks

    def tick(self):
        self.ticks += 1
        world = self.world
        if not world.level:
            if self.countdown is None:
                return
            if self.countdown > 1:
                self.countdown -= 1
                return
        kernel, rng = world.kernel, world.rng
        world.log.append((kernel.now_us, self.name, self.ticks, world.level))
        self.countdown = rng.choice([None, 1, 2, 3, 5, 8])
        roll = rng.random()
        if roll < 0.3:
            world.level = rng.choice([0, 0, 1])
        elif roll < 0.5:
            delay = rng.choice([0, self.period, 2 * self.period, 1])
            kernel.schedule_in(delay, lambda: one_shot(world, f"{self.name}+"), "one-shot")
        elif roll < 0.55:
            self.handle.cancel()


def one_shot(world, name, level=None, sampler=None):
    """A one-shot event: logs, may set the level and start a series."""
    world.log.append((world.kernel.now_us, name, None, world.level))
    if level is not None:
        world.level = level
    if sampler is not None:
        ToySampler(world, *sampler)


series = st.tuples(
    st.sampled_from([2, 3, 4, 6]),
    st.sampled_from([None, 1, 2, 3, 7, 20]),
)
one_shots = st.lists(
    st.tuples(
        st.integers(0, 120),
        st.sampled_from([None, 0, 1]),
        st.one_of(st.none(), series),
    ),
    max_size=12,
)


def run_world(elide, seed, initial, events, deadlines):
    kernel = Kernel()
    world = World(kernel, elide, seed)
    for index, (period, countdown) in enumerate(initial):
        ToySampler(world, f"s{index}", period, countdown)
    for index, (time_us, level, sampler) in enumerate(events):
        name = f"e{index}"
        spec = None if sampler is None else (f"{name}s", *sampler)
        kernel.schedule_at(
            time_us, lambda n=name, lv=level, sp=spec: one_shot(world, n, lv, sp), name
        )
    for deadline in sorted(deadlines):
        kernel.run_until(deadline)
        world.log.append((kernel.now_us, "deadline", None, world.level))
    state = [
        (sampler.name, sampler.ticks, sampler.countdown, sampler.handle.time_us,
         sampler.handle.pending)
        for sampler in world.samplers
    ]
    return world.log, state, kernel.events_fired, kernel.events_elided


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    initial=st.lists(series, min_size=1, max_size=4),
    events=one_shots,
    deadlines=st.lists(st.integers(0, 150), min_size=1, max_size=4),
)
def test_eliding_kernel_matches_a_kernel_that_never_elides(seed, initial, events, deadlines):
    log, state, simulated, elided = run_world(True, seed, initial, events, deadlines)
    plain_log, plain_state, plain_simulated, plain_elided = run_world(
        False, seed, initial, events, deadlines
    )
    assert not plain_elided
    assert log == plain_log
    assert state == plain_state
    assert simulated == plain_simulated
