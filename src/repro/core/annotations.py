"""Annotation registry: (element, event) -> QoS spec under the cascade.

The registry is the runtime's view of a page's GreenWeb annotations.
Lookup follows CSS cascade rules: among annotations for the event type
whose selector matches the element, the highest (specificity, source
order) wins.  Results are memoised per (element, event) because DOMs
and annotations are static during a run; :meth:`AnnotationRegistry.add`
invalidates the cache (AutoGreen injects annotations at load time).
"""

from __future__ import annotations

import weakref
from typing import Iterable, Optional

from repro.core.language import GreenWebAnnotation, extract_annotations
from repro.core.qos import QoSSpec
from repro.web.css.stylesheet import StyleRule, Stylesheet
from repro.web.dom import Element
from repro.web.events import EventType, coerce_event_type


#: Annotations extracted per rule sequence, keyed by the rules' ids.
#: Each entry keeps its rule objects alive, so no other object can
#: take one of those ids while the entry exists.
_EXTRACTED: dict[
    tuple[int, ...], tuple[tuple[StyleRule, ...], tuple[GreenWebAnnotation, ...]]
] = {}
#: Bound on distinct sequences kept (the twelve apps' sheets with and
#: without manual annotations, plus ad-hoc pages).
_EXTRACTED_MAX = 256


class AnnotationRegistry:
    """Holds a page's GreenWeb annotations and resolves lookups."""

    def __init__(self, annotations: Optional[Iterable[GreenWebAnnotation]] = None) -> None:
        self._annotations: list[GreenWebAnnotation] = list(annotations) if annotations else []
        # Weak keys: a dead element's cache entries vanish with it, so a
        # recycled object identity can never alias a stale result.
        self._cache: "weakref.WeakKeyDictionary[Element, dict[EventType, Optional[QoSSpec]]]" = (
            weakref.WeakKeyDictionary()
        )

    @classmethod
    def from_stylesheet(cls, stylesheet: Stylesheet) -> "AnnotationRegistry":
        """Build a registry from a page's (combined) stylesheet.

        Extraction is a pure function of the rule sequence, so it runs
        once per distinct sequence of rule objects: every session of an
        application presents its template's shared rules.  Each
        registry still gets its own list and element cache.
        """
        rules = stylesheet.rules
        key = tuple(map(id, rules))
        extracted = _EXTRACTED.get(key)
        if extracted is None:
            if len(_EXTRACTED) >= _EXTRACTED_MAX:
                _EXTRACTED.clear()
            extracted = (tuple(rules), tuple(extract_annotations(stylesheet)))
            _EXTRACTED[key] = extracted
        return cls(extracted[1])

    @property
    def annotations(self) -> list[GreenWebAnnotation]:
        return list(self._annotations)

    def __len__(self) -> int:
        return len(self._annotations)

    def add(self, annotation: GreenWebAnnotation) -> None:
        """Append an annotation (later additions win cascade ties,
        mirroring a later <style> block)."""
        self._annotations.append(annotation)
        self._cache.clear()

    def extend(self, annotations: Iterable[GreenWebAnnotation]) -> None:
        for annotation in annotations:
            self.add(annotation)

    def lookup(self, element: Element, event_type: "EventType | str") -> Optional[QoSSpec]:
        """The winning QoS spec for ``event_type`` on ``element``
        (None if the pair is unannotated)."""
        event_type = coerce_event_type(event_type)
        per_element = self._cache.get(element)
        if per_element is not None and event_type in per_element:
            return per_element[event_type]
        winner: Optional[GreenWebAnnotation] = None
        winner_key = ((-1, -1, -1), -1)
        for order, annotation in enumerate(self._annotations):
            if annotation.event_type is not event_type:
                continue
            if not annotation.selector.matches(element):
                continue
            candidate_key = (annotation.selector.specificity(), order)
            if candidate_key >= winner_key:
                winner = annotation
                winner_key = candidate_key
        spec = winner.spec if winner is not None else None
        self._cache.setdefault(element, {})[event_type] = spec
        return spec

