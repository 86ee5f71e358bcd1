"""The scenario registry: one authoritative name -> scenario mapping.

Mirrors :class:`repro.policies.registry.PolicyRegistry`: every usage
scenario — the paper's two static ones, the dynamic builtins, and
third-party extensions — registers here once, and every layer (the
CLI's ``--scenario``, fleet mix validation, the session facade, the
runner) validates and builds through the registry, so they can never
disagree about the vocabulary.

Registering a scenario::

    from repro.scenarios import Scenario, register

    @register("tidal", description="target oscillates with the tide")
    class TidalScenario(Scenario):
        def __init__(self, period_s: float = 60.0):
            ...

The class ``__init__`` keyword parameters (after ``self``) define the
scenario's typed parameter schema, exactly as policy factories do:
names are validated, string values are coerced to the annotated type,
and anything unknown raises :class:`~repro.errors.EvaluationError`
with the valid parameter list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from repro.errors import EvaluationError
from repro.policies.registry import (
    ParamInfo,
    _coerce_param,
    _introspect_params,
)
from repro.scenarios.base import Scenario
from repro.scenarios.spec import ScenarioSpec


@dataclass(frozen=True)
class ScenarioEntry:
    """One registered scenario: factory, parameter schema, metadata."""

    name: str
    factory: Callable[..., Scenario]
    params: tuple[ParamInfo, ...]
    description: str = ""
    aliases: Mapping[str, str] = field(default_factory=dict)

    @property
    def param_names(self) -> list[str]:
        return [p.name for p in self.params]

    def param(self, name: str) -> ParamInfo:
        for info in self.params:
            if info.name == name:
                return info
        raise KeyError(name)


class ScenarioRegistry:
    """A mutable name -> :class:`ScenarioEntry` mapping with validation."""

    def __init__(self) -> None:
        self._entries: dict[str, ScenarioEntry] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        *,
        description: str = "",
        params_from: Optional[Callable] = None,
        aliases: Optional[Mapping[str, str]] = None,
        replace: bool = False,
    ) -> Callable:
        """Decorator registering a :class:`Scenario` factory (usually
        the subclass itself).

        Args:
            name: the scenario's spec name.
            description: one-line summary for listings.
            params_from: introspect this callable's signature for the
                parameter schema instead of the decorated factory's.
            aliases: short parameter spellings (e.g. ``{"cap":
                "cap_mhz"}``), resolved during normalisation so
                canonical specs always use full names.
            replace: allow re-registering an existing name (tests,
                interactive reloads); otherwise duplicates raise.
        """
        if not replace and name in self._entries:
            raise EvaluationError(f"scenario {name!r} is already registered")

        def decorator(fn: Callable) -> Callable:
            params = _introspect_params(params_from if params_from is not None else fn)
            alias_map = dict(aliases or {})
            known = {p.name for p in params}
            for short, full in alias_map.items():
                if full not in known:
                    raise EvaluationError(
                        f"alias {short!r} of scenario {name!r} targets unknown "
                        f"parameter {full!r}"
                    )
            self._entries[name] = ScenarioEntry(
                name=name,
                factory=fn,
                params=params,
                description=description,
                aliases=alias_map,
            )
            return fn

        return decorator

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def names(self) -> tuple[str, ...]:
        """All registered scenario names, sorted."""
        return tuple(sorted(self._entries))

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def get(self, name: str) -> ScenarioEntry:
        """The entry for ``name``; the one unknown-scenario error
        message every layer (runner, session, fleet mix, CLI) reports."""
        try:
            return self._entries[name]
        except KeyError:
            raise EvaluationError(
                f"unknown scenario {name!r}; known scenarios: {list(self.names())}"
            ) from None

    def describe(self) -> dict[str, str]:
        """name -> one-line description, for CLI/docs listings."""
        return {name: self._entries[name].description for name in self.names()}

    # ------------------------------------------------------------------
    # Validation / construction
    # ------------------------------------------------------------------
    def normalize(self, spec: "ScenarioSpec | str") -> ScenarioSpec:
        """Validate a spec against its scenario's schema and return the
        canonical form: aliases resolved, values type-coerced, params
        sorted.  Raises :class:`EvaluationError` on unknown scenario
        names, unknown parameters, or type mismatches."""
        spec = ScenarioSpec.coerce(spec)
        entry = self.get(spec.name)
        resolved: dict[str, object] = {}
        for key, value in spec.params:
            full = entry.aliases.get(key, key)
            if full not in {p.name for p in entry.params}:
                if not entry.params:
                    raise EvaluationError(
                        f"scenario {spec.name!r} accepts no parameters "
                        f"(got {key!r})"
                    )
                raise EvaluationError(
                    f"unknown parameter {key!r} for scenario {spec.name!r}; "
                    f"valid parameters: {entry.param_names}"
                )
            if full in resolved:
                raise EvaluationError(
                    f"duplicate parameter {full!r} in scenario {spec.name!r} "
                    "(alias and full name both given)"
                )
            resolved[full] = _coerce_param(
                spec.name, entry.param(full), value, kind="scenario"
            )
        return ScenarioSpec(spec.name, tuple(resolved.items()))

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
