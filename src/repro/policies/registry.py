"""The policy registry, and the registry code every spec kind shares.

Every scheduling policy — the paper's baselines, the GreenWeb runtime,
post-hoc oracles, third-party extensions — registers here once, and
every layer that used to hard-code governor names (the runner, the
session facade, fleet mix parsing, the CLI) validates and builds
through the registry instead.  :class:`SpecRegistry` holds the
registration, lookup and validation code; :class:`PolicyRegistry` adds
post-hoc registration and ``build``, and
:class:`repro.scenarios.registry.ScenarioRegistry` adds only ``build``.

Registering a policy::

    from repro.policies import register

    @register("my_policy", description="always little@600")
    def _build(platform, registry, scenario, *, freq_mhz: int = 600):
        return MyPolicy(platform, freq_mhz)

The factory's keyword parameters (after the three fixed positionals
``platform, registry, scenario``) define the policy's typed parameter
schema: names are validated, string values from spec strings are
coerced to the annotated type (floats must be finite), and anything
unknown raises :class:`~repro.errors.EvaluationError` with the valid
parameter list.
``params_from=SomeClass`` introspects that class's ``__init__`` instead
(for factories that just forward ``**params``).

Post-hoc policies (``posthoc=True``) do not drive a live browser:
their callable receives the full run context and returns a finished
:class:`~repro.evaluation.runner.RunResult` — see
:mod:`repro.policies.oracle`.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from repro.errors import EvaluationError
from repro.hardware.dvfs import CpuConfig
from repro.policies.spec import PolicySpec

#: Parameter names consumed by the build call itself, never part of an
#: entry's parameter schema.
_FIXED_PARAMS = frozenset({"self", "platform", "registry", "scenario"})
#: Attribute marking a spec :meth:`SpecRegistry.normalize` returned: the
#: entry it was validated against (not a field, and not pickled).
_NORMALIZED_BY = "_normalized_by"


@dataclass(frozen=True)
class ParamInfo:
    """One declared parameter: its annotation and default."""

    name: str
    annotation: str
    default: object


@dataclass(frozen=True)
class RegistryEntry:
    """One registered policy or scenario: factory, schema, metadata."""

    name: str
    #: builds the live object; None for a post-hoc policy
    factory: Optional[Callable]
    params: tuple[ParamInfo, ...]
    description: str = ""
    aliases: Mapping[str, str] = field(default_factory=dict)
    #: a post-hoc policy's whole-run replayer (policies only)
    posthoc: Optional[Callable] = None
    #: parameter -> its smallest accepted value, checked at validation
    minimums: Mapping[str, float] = field(default_factory=dict)

    @property
    def param_names(self) -> list[str]:
        return [p.name for p in self.params]

    def param(self, name: str) -> ParamInfo:
        for info in self.params:
            if info.name == name:
                return info
        raise KeyError(name)


def _annotation_text(annotation: object) -> str:
    if annotation is inspect.Parameter.empty:
        return ""
    if isinstance(annotation, str):
        return annotation
    return getattr(annotation, "__name__", str(annotation))


def _introspect_params(callable_obj: Callable) -> tuple[ParamInfo, ...]:
    """Derive a parameter schema from a factory (or class) signature."""
    target = callable_obj.__init__ if inspect.isclass(callable_obj) else callable_obj
    params = []
    for param in inspect.signature(target).parameters.values():
        if param.name in _FIXED_PARAMS:
            continue
        if param.kind in (
            inspect.Parameter.VAR_POSITIONAL,
            inspect.Parameter.VAR_KEYWORD,
        ):
            continue
        params.append(
            ParamInfo(
                name=param.name,
                annotation=_annotation_text(param.annotation),
                default=None if param.default is inspect.Parameter.empty else param.default,
            )
        )
    return tuple(params)


def _parse_cpu_config(value: str) -> CpuConfig:
    text = value.strip()
    if text.endswith("MHz"):
        text = text[: -len("MHz")]
    cluster, sep, freq = text.partition("@")
    if not sep or not cluster or not freq.isdigit():
        raise EvaluationError(
            f"bad CPU configuration {value!r}: expected CLUSTER@MHZ "
            "(e.g. 'little@600' or 'big@1800MHz')"
        )
    return CpuConfig(cluster, int(freq))


def _coerce_param(name: str, info: ParamInfo, value: object, kind: str) -> object:
    """Coerce a parsed spec value to the parameter's declared type."""

    def mismatch(expected: str) -> EvaluationError:
        return EvaluationError(
            f"parameter {info.name!r} of {kind} {name!r} expects {expected}, "
            f"got {value!r}"
        )

    annotation = info.annotation
    if "CpuConfig" in annotation:
        if isinstance(value, CpuConfig) or value is None:
            return value
        if isinstance(value, str):
            return _parse_cpu_config(value)
        raise mismatch("a CPU configuration (CLUSTER@MHZ)")
    if "bool" in annotation or isinstance(info.default, bool):
        if isinstance(value, bool):
            return value
        raise mismatch("a bool (true/false)")
    if "float" in annotation or isinstance(info.default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise mismatch("a number")
        # Rejects nan, +-inf and integers beyond float range alike.
        if not abs(value) <= sys.float_info.max:
            raise mismatch("a finite number")
        return float(value)
    if "int" in annotation or isinstance(info.default, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise mismatch("an integer")
        return value
    if annotation == "str" or isinstance(info.default, str):
        if not isinstance(value, str):
            raise mismatch("a string")
        return value
    return value


class SpecRegistry:
    """A mutable name -> :class:`RegistryEntry` mapping with validation;
    messages name the entry kind through ``spec_class.KIND``."""

    #: the spec type :meth:`normalize` parses and returns
    spec_class: type[PolicySpec]
    #: the kind's plural, for the "known ..." list of unknown names
    plural: str

    def __init__(self) -> None:
        self._entries: dict[str, RegistryEntry] = {}

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
        minimums: Optional[Mapping[str, float]] = None,
        replace: bool = False,
    ) -> Callable:
        """Decorator registering a factory (for scenarios, usually the
        :class:`~repro.scenarios.Scenario` subclass itself).

        Args:
            name: the entry's spec name.
            description: one-line summary for listings.
            params_from: introspect this callable's signature for the
                parameter schema instead of the decorated factory's
                (for factories that forward ``**params``).
            aliases: short parameter spellings, e.g.
                ``{"ewma": "ewma_alpha"}`` — resolved during
                normalisation so canonical specs always use full names.
            minimums: a numeric parameter's smallest accepted value,
                e.g. ``{"period_ms": 1.0}``; a spec below it fails
                validation, before any session is built.
            replace: allow re-registering an existing name (tests,
                interactive reloads); otherwise duplicates raise.
        """
        kind = self.spec_class.KIND
        if not replace and name in self._entries:
            raise EvaluationError(f"{kind} {name!r} is already registered")

        def decorator(fn: Callable) -> Callable:
            params = _introspect_params(params_from if params_from is not None else fn)
            alias_map = dict(aliases or {})
            known = {p.name for p in params}
            for short, full in alias_map.items():
                if full not in known:
                    raise EvaluationError(
                        f"alias {short!r} of {kind} {name!r} targets unknown "
                        f"parameter {full!r}"
                    )
            for full in minimums or {}:
                if full not in known:
                    raise EvaluationError(
                        f"minimum for unknown parameter {full!r} of {kind} {name!r}"
                    )
            self._entries[name] = RegistryEntry(
                name=name,
                factory=fn,
                params=params,
                description=description,
                aliases=alias_map,
                minimums=dict(minimums or {}),
            )
            return fn

        return decorator

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def names(self) -> tuple[str, ...]:
        """All registered names, sorted."""
        return tuple(sorted(self._entries))

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def get(self, name: str) -> RegistryEntry:
        """The entry for ``name``; the one unknown-name error message
        every layer (runner, session, fleet mix, CLI) reports."""
        try:
            return self._entries[name]
        except KeyError:
            raise EvaluationError(
                f"unknown {self.spec_class.KIND} {name!r}; known "
                f"{self.plural}: {list(self.names())}"
            ) from None

    def describe(self) -> dict[str, str]:
        """name -> one-line description, for CLI/docs listings."""
        return {name: self._entries[name].description for name in self.names()}

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def normalize(self, spec: "PolicySpec | str") -> PolicySpec:
        """Validate a spec against its entry's schema and return the
        canonical form: aliases resolved, values type-coerced, params
        sorted.  Raises :class:`EvaluationError` on unknown names,
        unknown parameters, type mismatches, or a value below its
        registered minimum.

        A spec this registry already returned comes back unchanged
        (``normalize(s) is s``) while its entry is still registered.
        """
        if isinstance(spec, self.spec_class):
            validated_by = spec.__dict__.get(_NORMALIZED_BY)
            if validated_by is not None and validated_by is self._entries.get(spec.name):
                return spec
        kind = self.spec_class.KIND
        spec = self.spec_class.coerce(spec)
        entry = self.get(spec.name)
        resolved: dict[str, object] = {}
        for key, value in spec.params:
            full = entry.aliases.get(key, key)
            if full not in {p.name for p in entry.params}:
                if not entry.params:
                    raise EvaluationError(
                        f"{kind} {spec.name!r} accepts no parameters "
                        f"(got {key!r})"
                    )
                raise EvaluationError(
                    f"unknown parameter {key!r} for {kind} {spec.name!r}; "
                    f"valid parameters: {entry.param_names}"
                )
            if full in resolved:
                raise EvaluationError(
                    f"duplicate parameter {full!r} in {kind} {spec.name!r} "
                    "(alias and full name both given)"
                )
            value = _coerce_param(spec.name, entry.param(full), value, kind)
            minimum = entry.minimums.get(full)
            if minimum is not None and value < minimum:
                raise EvaluationError(
                    f"parameter {full!r} of {kind} {spec.name!r} must be "
                    f">= {minimum!r}, got {value!r}"
                )
            resolved[full] = value
        canonical = self.spec_class(spec.name, tuple(resolved.items()))
        object.__setattr__(canonical, _NORMALIZED_BY, entry)
        return canonical


class PolicyRegistry(SpecRegistry):
    """The policy registry: adds post-hoc registration and ``build``."""

    spec_class = PolicySpec
    plural = "policies"

    def register(self, name: str, *, posthoc: bool = False, **options) -> Callable:
        """:meth:`SpecRegistry.register` (``description``,
        ``params_from``, ``aliases``, ``replace``), plus ``posthoc``: the
        decorated callable is a post-hoc runner producing a finished run
        result, not a live browser policy factory."""
        register = super().register(name, **options)
        if not posthoc:
            return register

        def decorator(fn: Callable) -> Callable:
            register(fn)
            self._entries[name] = dataclasses.replace(
                self._entries[name], factory=None, posthoc=fn
            )
            return fn

        return decorator

    def build(self, spec, platform, registry, scenario):
        """Instantiate the live policy a spec describes.

        Args:
            spec: a :class:`PolicySpec` or spec string.
            platform: the :class:`~repro.hardware.platform.MobilePlatform`.
            registry: the page's
                :class:`~repro.core.annotations.AnnotationRegistry`.
            scenario: the live bound :class:`~repro.scenarios.Scenario`
                the policy reads its (possibly time-varying) targets
                through.

        Returns:
            A bound-ready :class:`~repro.browser.engine.BrowserPolicy`.

        Raises:
            EvaluationError: unknown name/params, a post-hoc policy
                (those cannot drive a live browser), or a ``scenario``
                that is not a live scenario object.
        """
        spec = self.normalize(spec)
        entry = self.get(spec.name)
        if entry.factory is None:
            raise EvaluationError(
                f"policy {spec.name!r} is post-hoc: it replays whole runs "
                "and cannot drive a live browser; use "
                "repro.evaluation.runner.run_workload instead"
            )
        from repro.scenarios.base import Scenario  # scenarios import this module

        if not isinstance(scenario, Scenario):
            raise EvaluationError(
                "policies read their targets through a live scenario "
                "(SCENARIOS.build(...) or build_live_scenario(...)), not "
                f"{type(scenario).__name__} {scenario!r}"
            )
        return entry.factory(platform, registry, scenario, **spec.params_dict)


#: The entry type's policy-side name (``ScenarioEntry`` is the same class).
PolicyEntry = RegistryEntry

#: The process-wide default registry.  ``repro.policies`` registers the
#: built-in policies on import; third parties add theirs via
#: :func:`repro.policies.register`.
POLICIES = PolicyRegistry()
