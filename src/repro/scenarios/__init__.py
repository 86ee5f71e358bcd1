"""Usage scenarios as first-class, parameterizable simulation actors.

Public surface::

    from repro.scenarios import SCENARIOS, Scenario, ScenarioSpec, register

    SCENARIOS.names()                       # registered vocabulary
    spec = SCENARIOS.normalize("thermal(cap_mhz=1100)")
    live = SCENARIOS.build(spec).bind(platform, rng)   # one per session

See :mod:`repro.scenarios.base` for the determinism contract and
:mod:`repro.scenarios.builtin` for the shipped scenarios.
"""

import functools

from repro.scenarios.base import Scenario, interpolate_target_ms
from repro.scenarios.registry import SCENARIOS, ScenarioEntry, ScenarioRegistry
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios import builtin as _builtin  # noqa: F401  registers builtins
from repro.sim.random import RngStreams

#: Register a third-party scenario on the default registry.
register = SCENARIOS.register


def build_live_scenario(spec, platform, seed: int = 0) -> Scenario:
    """Build a fresh scenario and bind it to ``platform`` on the
    session's forked ``"scenario"`` RNG lane, so scenario randomness
    never perturbs workload streams.  The lane is derived on first use,
    so the static scenarios, which never draw, never derive it.

    Every session builder binds through here, before it builds the
    policy from its spec: the measurement runner's
    :class:`~repro.evaluation.runner.SessionExecution` and
    :meth:`repro.session.Session.for_page`.  Remember to call
    ``scenario.attach(browser)`` once the browser exists.
    """
    return SCENARIOS.build(spec).bind(
        platform, functools.partial(RngStreams(seed).fork, "scenario")
    )


__all__ = [
    "SCENARIOS",
    "Scenario",
    "ScenarioEntry",
    "ScenarioRegistry",
    "ScenarioSpec",
    "build_live_scenario",
    "interpolate_target_ms",
    "register",
]
