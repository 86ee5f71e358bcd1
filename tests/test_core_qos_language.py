"""Tests for the QoS abstractions and the GreenWeb language extension."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import AnnotationError, QosError
from repro.core import (
    CONTINUOUS_DEFAULT,
    SINGLE_LONG_DEFAULT,
    SINGLE_SHORT_DEFAULT,
    TABLE1_CATEGORIES,
    AnnotationRegistry,
    QoSSpec,
    QoSTarget,
    QoSType,
    ResponseExpectation,
    extract_annotations,
)
from repro.core.language import (
    annotation_to_css,
    event_type_of_property,
    is_qos_property,
    parse_qos_declaration,
)
from repro.scenarios import SCENARIOS
from repro.web import Document
from repro.web.css.parser import parse_stylesheet
from repro.web.events import EventType


class TestQoSTarget:
    def test_table1_defaults(self):
        assert CONTINUOUS_DEFAULT == QoSTarget(16.6, 33.3)
        assert SINGLE_SHORT_DEFAULT == QoSTarget(100, 300)
        assert SINGLE_LONG_DEFAULT == QoSTarget(1000, 10_000)

    def test_scenario_selection(self):
        imperceptible = SCENARIOS.build("imperceptible")
        usable = SCENARIOS.build("usable")
        assert imperceptible.operative_target_ms(CONTINUOUS_DEFAULT) == 16.6
        assert usable.operative_target_ms(CONTINUOUS_DEFAULT) == 33.3

    def test_invalid_targets(self):
        with pytest.raises(QosError):
            QoSTarget(300, 100)  # TI > TU
        with pytest.raises(QosError):
            QoSTarget(0, 100)
        with pytest.raises(QosError):
            QoSTarget(10, -1)

    def test_table1_category_magnitudes_differ(self):
        """Sec. 3.3: the categories' magnitudes differ significantly
        (tens of ms vs hundreds of ms vs seconds)."""
        targets = [c.target.imperceptible_ms for c in TABLE1_CATEGORIES]
        assert targets == sorted(targets)
        for small, large in zip(targets, targets[1:]):
            assert large / small >= 5


class TestQoSSpec:
    def test_continuous_default(self):
        spec = QoSSpec.continuous()
        assert spec.qos_type is QoSType.CONTINUOUS
        assert spec.target == CONTINUOUS_DEFAULT

    def test_single_defaults_from_expectation(self):
        assert QoSSpec.single(ResponseExpectation.SHORT).target == SINGLE_SHORT_DEFAULT
        assert QoSSpec.single(ResponseExpectation.LONG).target == SINGLE_LONG_DEFAULT

    def test_continuous_rejects_expectation(self):
        with pytest.raises(QosError):
            QoSSpec(QoSType.CONTINUOUS, CONTINUOUS_DEFAULT, ResponseExpectation.SHORT)

    def test_target_ms(self):
        spec = QoSSpec.single(ResponseExpectation.LONG)
        assert SCENARIOS.build("imperceptible").operative_target_ms(spec.target) == 1000
        assert SCENARIOS.build("usable").operative_target_ms(spec.target) == 10_000


class TestQosProperty:
    def test_is_qos_property(self):
        assert is_qos_property("onclick-qos")
        assert is_qos_property("ontouchmove-qos")
        assert not is_qos_property("onclick")
        assert not is_qos_property("transition")

    def test_event_mapping(self):
        assert event_type_of_property("onclick-qos") is EventType.CLICK
        assert event_type_of_property("ontouchstart-qos") is EventType.TOUCHSTART
        assert event_type_of_property("onload-qos") is EventType.LOAD

    def test_unknown_event_rejected(self):
        with pytest.raises(AnnotationError):
            event_type_of_property("onmouseover-qos")

    def test_non_qos_property_rejected(self):
        with pytest.raises(AnnotationError):
            event_type_of_property("width")


def declaration_of(css_value):
    sheet = parse_stylesheet(f"div:QoS {{ onclick-qos: {css_value}; }}")
    return sheet.rules[0].declarations[0]


class TestDeclarationParsing:
    """Table 2's three forms."""

    def test_continuous_bare(self):
        spec = parse_qos_declaration(declaration_of("continuous"))
        assert spec == QoSSpec.continuous()

    def test_continuous_with_targets(self):
        """The paper's Fig. 5: ontouchmove-qos: continuous, 20, 100."""
        spec = parse_qos_declaration(declaration_of("continuous, 20, 100"))
        assert spec.qos_type is QoSType.CONTINUOUS
        assert spec.target == QoSTarget(20, 100)

    def test_single_short(self):
        spec = parse_qos_declaration(declaration_of("single, short"))
        assert spec.target == SINGLE_SHORT_DEFAULT
        assert spec.expectation is ResponseExpectation.SHORT

    def test_single_long(self):
        spec = parse_qos_declaration(declaration_of("single, long"))
        assert spec.target == SINGLE_LONG_DEFAULT

    def test_single_explicit_targets(self):
        spec = parse_qos_declaration(declaration_of("single, 50, 200"))
        assert spec.qos_type is QoSType.SINGLE
        assert spec.target == QoSTarget(50, 200)
        assert spec.expectation is None

    def test_targets_with_units(self):
        spec = parse_qos_declaration(declaration_of("continuous, 20ms, 0.1s"))
        assert spec.target == QoSTarget(20, 100)

    def test_single_alone_rejected(self):
        with pytest.raises(AnnotationError):
            parse_qos_declaration(declaration_of("single"))

    def test_one_target_value_rejected(self):
        """Table 2: both values must appear or be omitted together."""
        with pytest.raises(AnnotationError):
            parse_qos_declaration(declaration_of("continuous, 20"))

    def test_three_target_values_rejected(self):
        with pytest.raises(AnnotationError):
            parse_qos_declaration(declaration_of("continuous, 20, 100, 200"))

    def test_unknown_type_rejected(self):
        with pytest.raises(AnnotationError):
            parse_qos_declaration(declaration_of("sometimes"))

    def test_inverted_targets_rejected(self):
        with pytest.raises(AnnotationError):
            parse_qos_declaration(declaration_of("continuous, 100, 20"))

    def test_single_bad_keyword_rejected(self):
        with pytest.raises(AnnotationError):
            parse_qos_declaration(declaration_of("single, medium"))

    @given(
        ti=st.floats(min_value=1, max_value=1000),
        ratio=st.floats(min_value=1, max_value=10),
    )
    def test_property_valid_pairs_always_parse(self, ti, ratio):
        ti_text = f"{ti:.3f}"
        tu_text = f"{max(ti * ratio, float(ti_text)):.3f}"
        spec = parse_qos_declaration(declaration_of(f"continuous, {ti_text}, {tu_text}"))
        assert spec.target.imperceptible_ms == pytest.approx(float(ti_text), rel=1e-9)
        assert spec.target.usable_ms == pytest.approx(float(tu_text), rel=1e-9)


class TestExtraction:
    def test_paper_fig4(self):
        sheet = parse_stylesheet("div#ex:QoS { ontouchstart-qos: continuous; }")
        annotations = extract_annotations(sheet)
        assert len(annotations) == 1
        assert annotations[0].event_type is EventType.TOUCHSTART
        assert annotations[0].spec == QoSSpec.continuous()

    def test_qos_declaration_without_qos_selector_rejected(self):
        sheet = parse_stylesheet("div#ex { ontouchstart-qos: continuous; }")
        with pytest.raises(AnnotationError):
            extract_annotations(sheet)

    def test_ordinary_rules_ignored(self):
        sheet = parse_stylesheet("div { width: 10px } p:QoS { onclick-qos: single, short }")
        assert len(extract_annotations(sheet)) == 1

    def test_multiple_declarations_per_rule(self):
        sheet = parse_stylesheet(
            "#x:QoS { onclick-qos: single, short; onscroll-qos: continuous; }"
        )
        events = {a.event_type for a in extract_annotations(sheet)}
        assert events == {EventType.CLICK, EventType.SCROLL}

    def test_roundtrip_to_css(self):
        sheet = parse_stylesheet("div#ex:QoS { ontouchmove-qos: continuous, 20, 100; }")
        annotation = extract_annotations(sheet)[0]
        text = annotation_to_css(annotation)
        reparsed = extract_annotations(parse_stylesheet(text))[0]
        assert reparsed.spec == annotation.spec
        assert reparsed.event_type is annotation.event_type


class TestRegistry:
    def make(self, css):
        return AnnotationRegistry.from_stylesheet(parse_stylesheet(css))

    def test_lookup_hit_and_miss(self):
        registry = self.make("div#ex:QoS { onclick-qos: single, short; }")
        doc = Document()
        ex = doc.create_element("div", element_id="ex")
        other = doc.create_element("div")
        assert registry.lookup(ex, "click") == QoSSpec.single()
        assert registry.lookup(other, "click") is None
        assert registry.lookup(ex, "scroll") is None

    def test_cascade_specificity(self):
        registry = self.make(
            "div:QoS { onclick-qos: single, long; }"
            "div#ex:QoS { onclick-qos: single, short; }"
        )
        doc = Document()
        ex = doc.create_element("div", element_id="ex")
        plain = doc.create_element("div")
        assert registry.lookup(ex, "click").target == SINGLE_SHORT_DEFAULT
        assert registry.lookup(plain, "click").target == SINGLE_LONG_DEFAULT

    def test_cascade_order_ties(self):
        registry = self.make(
            "div:QoS { onclick-qos: single, short; }"
            "div:QoS { onclick-qos: single, long; }"
        )
        doc = Document()
        element = doc.create_element("div")
        assert registry.lookup(element, "click").target == SINGLE_LONG_DEFAULT

    def test_add_invalidates_cache(self):
        registry = self.make("div:QoS { onclick-qos: single, short; }")
        doc = Document()
        element = doc.create_element("div")
        assert registry.lookup(element, "click").target == SINGLE_SHORT_DEFAULT
        extra = extract_annotations(
            parse_stylesheet("div:QoS { onclick-qos: single, long; }")
        )
        registry.extend(extra)
        assert registry.lookup(element, "click").target == SINGLE_LONG_DEFAULT

    def test_modularity_annotation_independent_of_callbacks(self):
        """Sec. 4.2: annotations attach to (element, event), not to how
        the callback is implemented — no listener required to resolve."""
        registry = self.make("#box:QoS { ontouchmove-qos: continuous; }")
        doc = Document()
        box = doc.create_element("div", element_id="box")
        assert registry.lookup(box, "touchmove") is not None
