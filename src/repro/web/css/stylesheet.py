"""CSS object model: declarations, rules, stylesheets, and cascade.

The cascade implemented here is the slice the reproduction needs:
among the rules whose selector matches an element, the declaration for
a property wins by (specificity, source order).  That is enough both
for ordinary properties (``transition``, ``width``) and for resolving
conflicting GreenWeb QoS rules deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from repro.web.css.selectors import Selector
from repro.web.css.tokenizer import CssToken
from repro.web.dom import Element


@dataclass(frozen=True)
class Declaration:
    """One ``property: value`` declaration.

    Attributes:
        property: lowercased property name (e.g. ``"onclick-qos"``).
        value: the raw value text with original spacing collapsed.
        tokens: the value's component tokens (no whitespace, no EOF),
            kept so downstream consumers (QoS parser, transitions)
            don't re-tokenize.
    """

    property: str
    value: str
    tokens: tuple[CssToken, ...] = ()

    def __str__(self) -> str:
        return f"{self.property}: {self.value}"


@dataclass(frozen=True)
class StyleRule:
    """One style rule: a selector list and a declaration block."""

    selectors: tuple[Selector, ...]
    declarations: tuple[Declaration, ...]

    def matches(self, element: Element) -> bool:
        """True if any of the rule's selectors matches ``element``."""
        return any(s.matches(element) for s in self.selectors)

    def best_specificity(self, element: Element) -> Optional[tuple[int, int, int]]:
        """Highest specificity among the selectors matching ``element``
        (None if none match)."""
        best: Optional[tuple[int, int, int]] = None
        for selector in self.selectors:
            if selector.matches(element):
                spec = selector.specificity()
                if best is None or spec > best:
                    best = spec
        return best

    @property
    def is_greenweb(self) -> bool:
        """True if any selector carries the ``:QoS`` qualifier — the
        marker of a GreenWeb rule (paper Sec. 4.1)."""
        return any(s.has_qos for s in self.selectors)

    def declaration(self, prop: str) -> Optional[Declaration]:
        """The *last* declaration of ``prop`` in the block (CSS rule:
        later declarations override earlier ones within a block)."""
        found = None
        for declaration in self.declarations:
            if declaration.property == prop.lower():
                found = declaration
        return found

    def __str__(self) -> str:
        selectors = ", ".join(str(s) for s in self.selectors)
        body = " ".join(f"{d};" for d in self.declarations)
        return f"{selectors} {{ {body} }}"


class Stylesheet:
    """An ordered collection of style rules with cascade resolution."""

    def __init__(self, rules: Optional[Iterable[StyleRule]] = None) -> None:
        self._rules: list[StyleRule] = list(rules) if rules else []

    def append(self, rule: StyleRule) -> None:
        self._rules.append(rule)

    def extend(self, other: "Stylesheet") -> None:
        """Append all of ``other``'s rules after this sheet's (document
        order across multiple <style> blocks)."""
        self._rules.extend(other.rules)

    @property
    def rules(self) -> list[StyleRule]:
        return self._rules

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[StyleRule]:
        return iter(self._rules)

    def greenweb_rules(self) -> list[StyleRule]:
        """All rules marked with the ``:QoS`` pseudo-class."""
        return [rule for rule in self._rules if rule.is_greenweb]

    def resolve(self, element: Element, prop: str) -> Optional[Declaration]:
        """Cascade: the winning declaration of ``prop`` for ``element``.

        Ordering: higher specificity wins; ties broken by later source
        order.  Inline ``element.style`` entries beat everything (they
        are checked first and returned as synthetic declarations).
        """
        prop = prop.lower()
        if prop in element.style:
            return Declaration(prop, element.style[prop])
        winner: Optional[Declaration] = None
        winner_key: tuple[tuple[int, int, int], int] = ((-1, -1, -1), -1)
        for order, rule in enumerate(self._rules):
            declaration = rule.declaration(prop)
            if declaration is None:
                continue
            specificity = rule.best_specificity(element)
            if specificity is None:
                continue
            key = (specificity, order)
            if key >= winner_key:
                winner = declaration
                winner_key = key
        return winner

    def computed_style(self, element: Element) -> dict[str, str]:
        """Every property's winning value for ``element``: the cascade
        over all matching rules, with inline styles on top.

        Returns a plain property -> value text map (no inheritance or
        shorthand expansion — the slice rendering and QoS need).
        """
        computed: dict[str, tuple[tuple[int, int, int], int, str]] = {}
        for order, rule in enumerate(self._rules):
            specificity = rule.best_specificity(element)
            if specificity is None:
                continue
            for declaration in rule.declarations:
                key = (specificity, order)
                current = computed.get(declaration.property)
                if current is None or key >= (current[0], current[1]):
                    computed[declaration.property] = (specificity, order, declaration.value)
        result = {prop: value for prop, (_s, _o, value) in computed.items()}
        result.update(element.style)  # inline wins
        return result

    def __str__(self) -> str:
        return "\n".join(str(rule) for rule in self._rules)
