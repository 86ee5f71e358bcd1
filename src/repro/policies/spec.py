"""Policy specs: scheduling policies as *data*.

A :class:`PolicySpec` is the parsed, canonical form of strings like::

    greenweb
    greenweb(ewma_alpha=0.25)
    interactive(go_hispeed_load=0.8,input_boost=false)

Grammar (whitespace-insensitive)::

    spec   := NAME | NAME "(" params ")"
    params := param ("," param)*
    param  := KEY "=" VALUE

``NAME`` and ``KEY`` are identifiers; ``VALUE`` is a bool
(``true``/``false``), an int, a float, or a bare string drawn from
``[A-Za-z0-9_@.+-]`` (enough for ``big@1800MHz``-style configuration
values).  Parsing is total and reversible for primitive values:
``parse(canonical(parse(text)))`` is the identity, which is what lets
fleet checkpoints fingerprint a population by its canonical spec
strings and refuse to resume across parameter changes.

Canonical form: parameters sorted by key, no spaces, floats rendered
with ``repr`` (shortest round-tripping form), bools as ``true``/
``false``.  A spec with no parameters canonicalises to the bare name,
so pre-existing plumbing that compares governor *names* keeps working
byte-for-byte.

The grammar is shared: :class:`repro.scenarios.spec.ScenarioSpec`
subclasses :class:`PolicySpec` with ``KIND = "scenario"``, so scenario
specs parse, canonicalise, and validate identically while error
messages name the right kind of spec.

String parameter values may never contain ``|`` or ``:`` — those are
the fleet cell-key and mix-entry delimiters
(:data:`repro.fleet.aggregate.CELL_SEP` and the mix grammar), and a
spec that smuggled one in would mis-parse every downstream cell table.
The parser's bare-string alphabet already excludes them; programmatic
construction enforces the same rule in ``__post_init__``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import EvaluationError

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_-]*$")
_BARE_VALUE_RE = re.compile(r"^[A-Za-z0-9_@.+-]+$")
_INT_RE = re.compile(r"^[+-]?\d+$")

#: Characters no spec string may carry through to fleet plumbing: ``|``
#: separates cell-key fields and ``:`` separates mix-entry fields.
_RESERVED_DELIMITERS = ("|", ":")


def parse_param_value(text: str, kind: str = "policy") -> object:
    """Parse one parameter value: bool, int, float, or bare string."""
    item = text.strip()
    if not item:
        raise EvaluationError(f"empty {kind} parameter value")
    lowered = item.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    if _INT_RE.match(item):
        return int(item)
    try:
        return float(item)
    except ValueError:
        pass
    if not _BARE_VALUE_RE.match(item):
        raise EvaluationError(
            f"bad {kind} parameter value {text!r}: expected a bool, number, "
            "or bare string ([A-Za-z0-9_@.+-])"
        )
    return item


def format_param_value(value: object, kind: str = "policy") -> str:
    """Serialise one parameter value into the spec grammar.

    Raises :class:`EvaluationError` for values the grammar cannot
    express (use :func:`format_param_value_lossy` for display labels).
    """
    text = format_param_value_lossy(value)
    if isinstance(value, (bool, int, float)):
        return text
    if not isinstance(value, str) or not _BARE_VALUE_RE.match(text):
        raise EvaluationError(
            f"{kind} parameter value {value!r} cannot be expressed in a "
            "spec string (allowed: bool, int, float, bare string)"
        )
    return text


def format_param_value_lossy(value: object) -> str:
    """Best-effort serialisation: never raises, used for display labels."""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class PolicySpec:
    """One scheduling policy plus its parameters, as a value type.

    ``params`` is a sorted tuple of ``(key, value)`` pairs so specs are
    hashable and order-insensitive: ``greenweb(a=1,b=2)`` equals
    ``greenweb(b=2,a=1)``.
    """

    name: str
    params: tuple[tuple[str, object], ...] = ()

    #: What this spec describes; subclasses (scenario specs) override it
    #: so shared grammar errors name the right kind.
    KIND = "policy"

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise EvaluationError(f"bad {self.KIND} name {self.name!r}")
        seen = set()
        for key, value in self.params:
            if not _NAME_RE.match(key):
                raise EvaluationError(
                    f"bad parameter name {key!r} in {self.KIND} {self.name!r}"
                )
            if key in seen:
                raise EvaluationError(
                    f"duplicate parameter {key!r} in {self.KIND} {self.name!r}"
                )
            seen.add(key)
            if isinstance(value, str) and any(
                delim in value for delim in _RESERVED_DELIMITERS
            ):
                raise EvaluationError(
                    f"bad parameter value {value!r} for {key!r} in "
                    f"{self.KIND} {self.name!r}: '|' and ':' are reserved "
                    "fleet delimiters (cell keys and mix entries)"
                )
        ordered = tuple(sorted(self.params, key=lambda kv: kv[0]))
        object.__setattr__(self, "params", ordered)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "PolicySpec":
        """Parse a spec string (see the module docstring's grammar)."""
        item = text.strip()
        if not item:
            raise EvaluationError(f"empty {cls.KIND} spec")
        if "(" not in item:
            if not _NAME_RE.match(item):
                raise EvaluationError(
                    f"bad {cls.KIND} spec {text!r}: expected NAME or NAME(k=v,...)"
                )
            return cls(name=item)
        if not item.endswith(")"):
            raise EvaluationError(f"bad {cls.KIND} spec {text!r}: missing ')'")
        name, _, body = item[:-1].partition("(")
        name = name.strip()
        if not _NAME_RE.match(name):
            raise EvaluationError(
                f"bad {cls.KIND} name {name!r} in spec {text!r}"
            )
        params: list[tuple[str, object]] = []
        body = body.strip()
        if body:
            for piece in body.split(","):
                key, eq, value_text = piece.partition("=")
                if not eq:
                    raise EvaluationError(
                        f"bad {cls.KIND} parameter {piece.strip()!r} in spec "
                        f"{text!r}: expected KEY=VALUE"
                    )
                params.append(
                    (key.strip(), parse_param_value(value_text, cls.KIND))
                )
        return cls(name=name, params=tuple(params))

    @classmethod
    def coerce(cls, value: "PolicySpec | str") -> "PolicySpec":
        """A spec of this class from a spec (pass-through) or a string."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        raise EvaluationError(
            f"expected a {cls.KIND} spec string or {cls.__name__}, "
            f"got {type(value).__name__}"
        )

    def with_params(self, **params: object) -> "PolicySpec":
        """A copy with ``params`` merged in (new keys win over old)."""
        merged = dict(self.params)
        merged.update(params)
        return type(self)(self.name, tuple(merged.items()))

    # ------------------------------------------------------------------
    # Introspection / serialisation
    # ------------------------------------------------------------------
    @property
    def params_dict(self) -> dict[str, object]:
        return dict(self.params)

    def canonical(self) -> str:
        """The canonical spec string; ``parse`` of it round-trips.

        Raises :class:`EvaluationError` if a parameter value cannot be
        expressed in the grammar (non-primitive programmatic values).
        """
        return self._render(lambda value: format_param_value(value, self.KIND))

    def label(self) -> str:
        """Display form: like :meth:`canonical` but never raises —
        non-primitive values render via ``str`` (not re-parseable)."""
        return self._render(format_param_value_lossy)

    def _render(self, fmt) -> str:
        if not self.params:
            return self.name
        body = ",".join(f"{key}={fmt(value)}" for key, value in self.params)
        return f"{self.name}({body})"

    def __str__(self) -> str:
        return self.label()

    def __reduce__(self):
        # Pickle and copy by value: fields only, never a registry's mark.
        return type(self), (self.name, self.params)
