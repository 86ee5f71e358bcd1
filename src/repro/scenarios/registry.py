"""The scenario registry: one authoritative name -> scenario mapping.

Every usage scenario — the paper's two static ones, the dynamic
builtins, and third-party extensions — registers here once (see
:func:`repro.scenarios.register`), and every layer validates and builds
through it.  Registration, lookup and validation are
:class:`repro.policies.registry.SpecRegistry`'s, shared with the policy
registry: a scenario class's ``__init__`` keyword parameters define its
typed schema exactly as a policy factory's do.
"""

from __future__ import annotations

from repro.errors import EvaluationError
from repro.policies.registry import RegistryEntry, SpecRegistry
from repro.scenarios.base import Scenario
from repro.scenarios.spec import ScenarioSpec

#: The entry type's scenario-side name (``PolicyEntry`` is the same class).
ScenarioEntry = RegistryEntry


class ScenarioRegistry(SpecRegistry):
    """The scenario registry: adds ``build``."""

    spec_class = ScenarioSpec
    plural = "scenarios"

    def build(self, spec: "ScenarioSpec | str") -> Scenario:
        """Instantiate the (unbound) live scenario a spec describes.

        The caller binds it to a session with
        ``scenario.bind(platform, rng)``; instances are single-use.
        """
        spec = self.normalize(spec)
        entry = self.get(spec.name)
        scenario = entry.factory(**spec.params_dict)
        if not isinstance(scenario, Scenario):
            raise EvaluationError(
                f"scenario factory {spec.name!r} returned "
                f"{type(scenario).__name__}, not a Scenario"
            )
        scenario.spec = spec
        return scenario


#: The process-wide default registry.  ``repro.scenarios`` registers the
#: built-in scenarios on import; third parties add theirs via
#: :func:`repro.scenarios.register`.
SCENARIOS = ScenarioRegistry()
