"""Tests for the CSS tokenizer, parser, selectors, cascade, transitions."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import CssSyntaxError, SelectorError
from repro.web import Document
from repro.web.css import (
    CssTokenType,
    parse_selector,
    parse_stylesheet,
    tokenize,
)
from repro.web.css.transitions import (
    animation_for,
    parse_animation_value,
    parse_transition_value,
    transition_for,
)


def value_tokens(css_value: str):
    return tuple(t for t in tokenize(css_value) if t.type is not CssTokenType.EOF)


class TestTokenizer:
    def test_idents_and_punct(self):
        types = [t.type for t in tokenize("div { width: 100px; }")]
        assert types == [
            CssTokenType.IDENT,
            CssTokenType.LBRACE,
            CssTokenType.IDENT,
            CssTokenType.COLON,
            CssTokenType.DIMENSION,
            CssTokenType.SEMICOLON,
            CssTokenType.RBRACE,
            CssTokenType.EOF,
        ]

    def test_hash(self):
        token = tokenize("#intro")[0]
        assert token.type is CssTokenType.HASH
        assert token.value == "intro"

    def test_dimension_units_and_numeric(self):
        token = tokenize("16.6ms")[0]
        assert token.type is CssTokenType.DIMENSION
        assert token.numeric == pytest.approx(16.6)
        assert token.unit == "ms"

    def test_number(self):
        token = tokenize("33.3")[0]
        assert token.type is CssTokenType.NUMBER
        assert token.numeric == pytest.approx(33.3)

    def test_percentage(self):
        token = tokenize("50%")[0]
        assert token.type is CssTokenType.PERCENTAGE
        assert token.numeric == 50

    def test_string(self):
        token = tokenize("'hello world'")[0]
        assert token.type is CssTokenType.STRING
        assert token.value == "hello world"

    def test_unterminated_string(self):
        with pytest.raises(CssSyntaxError):
            tokenize("'oops")

    def test_comments_skipped(self):
        tokens = tokenize("/* hi */ div /* there */")
        assert [t.type for t in tokens] == [CssTokenType.IDENT, CssTokenType.EOF]

    def test_unterminated_comment(self):
        with pytest.raises(CssSyntaxError):
            tokenize("/* never closed")

    def test_line_and_column_tracking(self):
        tokens = tokenize("div\n{ width: 1px }")
        brace = tokens[1]
        assert (brace.line, brace.column) == (2, 1)

    def test_stray_character(self):
        with pytest.raises(CssSyntaxError):
            tokenize("div @ {}")

    def test_whitespace_kept_when_requested(self):
        tokens = tokenize("a b", keep_whitespace=True)
        assert tokens[1].type is CssTokenType.WHITESPACE


class TestSelectors:
    def test_type_selector(self):
        doc = Document()
        div = doc.create_element("div")
        assert parse_selector("div").matches(div)
        assert not parse_selector("span").matches(div)

    def test_compound_selector(self):
        doc = Document()
        element = doc.create_element("div", element_id="intro", classes={"a", "b"})
        assert parse_selector("div#intro.a.b").matches(element)
        assert not parse_selector("div#intro.c").matches(element)

    def test_universal(self):
        doc = Document()
        assert parse_selector("*").matches(doc.create_element("p"))

    def test_qos_pseudo_class_detection(self):
        selector = parse_selector("div#intro:QoS")
        assert selector.has_qos
        assert not parse_selector("div#intro").has_qos

    def test_qos_case_insensitive(self):
        assert parse_selector("div:qos").has_qos
        assert parse_selector("div:QOS").has_qos

    def test_descendant_combinator(self):
        doc = Document()
        outer = doc.create_element("div", classes={"nav"})
        mid = doc.create_element("ul", parent=outer)
        leaf = doc.create_element("li", parent=mid)
        assert parse_selector(".nav li").matches(leaf)
        assert not parse_selector(".other li").matches(leaf)

    def test_child_combinator(self):
        doc = Document()
        outer = doc.create_element("div", classes={"nav"})
        mid = doc.create_element("ul", parent=outer)
        leaf = doc.create_element("li", parent=mid)
        assert parse_selector("ul > li").matches(leaf)
        assert not parse_selector(".nav > li").matches(leaf)

    def test_specificity(self):
        assert parse_selector("div").specificity() == (0, 0, 1)
        assert parse_selector("#a").specificity() == (1, 0, 0)
        assert parse_selector("div.x:QoS").specificity() == (0, 2, 1)
        assert parse_selector("div#a .b span").specificity() == (1, 1, 2)

    def test_malformed_selectors(self):
        for bad in ("", "> div", "div >", "..a", "div:"):
            with pytest.raises((SelectorError, CssSyntaxError)):
                parse_selector(bad)

    def test_roundtrip_str(self):
        selector = parse_selector("div#intro.fancy:QoS")
        assert parse_selector(str(selector)).specificity() == selector.specificity()


class TestParser:
    def test_simple_rule(self):
        sheet = parse_stylesheet("h1 { font-weight: bold }")
        assert len(sheet) == 1
        rule = sheet.rules[0]
        assert str(rule.selectors[0]) == "h1"
        assert rule.declaration("font-weight").value == "bold"

    def test_multiple_rules_and_selectors(self):
        sheet = parse_stylesheet("a, b { x: 1 } c { y: 2; z: 3 }")
        assert len(sheet) == 2
        assert len(sheet.rules[0].selectors) == 2
        assert len(sheet.rules[1].declarations) == 2

    def test_greenweb_rule_from_paper_fig4(self):
        css = """
        div#ex:QoS {
            ontouchstart-qos: continuous;
        }
        """
        sheet = parse_stylesheet(css)
        assert sheet.rules[0].is_greenweb
        assert sheet.greenweb_rules() == [sheet.rules[0]]
        declaration = sheet.rules[0].declaration("ontouchstart-qos")
        assert declaration.value == "continuous"

    def test_greenweb_rule_with_targets_fig5(self):
        css = "div#box:QoS { ontouchmove-qos: continuous, 20, 100; }"
        sheet = parse_stylesheet(css)
        declaration = sheet.rules[0].declaration("ontouchmove-qos")
        numbers = [t.numeric for t in declaration.tokens if t.type is CssTokenType.NUMBER]
        assert numbers == [20, 100]

    def test_last_declaration_wins_within_block(self):
        sheet = parse_stylesheet("a { x: 1; x: 2 }")
        assert sheet.rules[0].declaration("x").value == "2"

    def test_missing_brace_raises(self):
        with pytest.raises(CssSyntaxError):
            parse_stylesheet("div { width: 1px")

    def test_missing_value_raises(self):
        with pytest.raises(CssSyntaxError):
            parse_stylesheet("div { width: ; }")

    def test_missing_colon_raises(self):
        with pytest.raises(CssSyntaxError):
            parse_stylesheet("div { width 1px; }")

    def test_empty_sheet(self):
        assert len(parse_stylesheet("   /* nothing */  ")) == 0

    def test_each_parse_returns_a_fresh_stylesheet(self):
        text = "div#a { width: 1px; } .b:QoS { onclick-qos: single, short; }"
        first = parse_stylesheet(text)
        second = parse_stylesheet(text)
        assert first is not second
        assert first.rules is not second.rules
        assert first.rules == second.rules
        first.append(parse_stylesheet("p { color: red; }").rules[0])
        first.extend(parse_stylesheet("q { color: blue; }"))
        assert len(first) == 4
        assert len(second) == 2
        assert len(parse_stylesheet(text)) == 2
        assert str(parse_stylesheet(text)) == str(second)

    @pytest.mark.parametrize("text", ["div { width: 1px", "div { width: ; }", "a { b: 1; } {"])
    def test_malformed_css_raises_on_every_call(self, text):
        for _ in range(3):
            with pytest.raises((CssSyntaxError, SelectorError)):
                parse_stylesheet(text)


class TestCascade:
    def test_specificity_beats_order(self):
        doc = Document()
        element = doc.create_element("div", element_id="x")
        sheet = parse_stylesheet("#x { color: red } div { color: blue }")
        assert sheet.resolve(element, "color").value == "red"

    def test_order_breaks_ties(self):
        doc = Document()
        element = doc.create_element("div")
        sheet = parse_stylesheet("div { color: red } div { color: blue }")
        assert sheet.resolve(element, "color").value == "blue"

    def test_inline_style_wins(self):
        doc = Document()
        element = doc.create_element("div", element_id="x")
        element.style["color"] = "green"
        sheet = parse_stylesheet("#x { color: red }")
        assert sheet.resolve(element, "color").value == "green"

    def test_no_match_returns_none(self):
        doc = Document()
        element = doc.create_element("p")
        sheet = parse_stylesheet("div { color: red }")
        assert sheet.resolve(element, "color") is None


class TestTransitions:
    def test_parse_simple_transition(self):
        specs = parse_transition_value(value_tokens("width 2s"))
        assert len(specs) == 1
        assert specs[0].property == "width"
        assert specs[0].duration_ms == 2000

    def test_parse_ms_and_delay(self):
        specs = parse_transition_value(value_tokens("opacity 300ms 100ms"))
        assert specs[0].duration_ms == 300
        assert specs[0].delay_ms == 100

    def test_parse_list(self):
        specs = parse_transition_value(value_tokens("width 2s, opacity 1s"))
        assert [s.property for s in specs] == ["width", "opacity"]

    def test_timing_function_ignored(self):
        specs = parse_transition_value(value_tokens("width 2s ease-in"))
        assert specs[0].duration_ms == 2000

    def test_transition_for_resolves_cascade(self):
        doc = Document()
        element = doc.create_element("div", element_id="ex")
        sheet = parse_stylesheet("div#ex { transition: width 2s; }")
        spec = transition_for(sheet, element, "width")
        assert spec is not None and spec.duration_ms == 2000
        assert transition_for(sheet, element, "color") is None

    def test_transition_all(self):
        doc = Document()
        element = doc.create_element("div", element_id="ex")
        sheet = parse_stylesheet("div#ex { transition: all 500ms; }")
        assert transition_for(sheet, element, "anything").duration_ms == 500

    def test_animation_parse(self):
        specs = parse_animation_value(value_tokens("slidein 3s 2"))
        assert specs[0].name == "slidein"
        assert specs[0].duration_ms == 3000
        assert specs[0].iterations == 2
        assert specs[0].total_ms == 6000

    def test_animation_infinite(self):
        specs = parse_animation_value(value_tokens("spin 1s infinite"))
        assert specs[0].iterations == float("inf")

    def test_animation_for(self):
        doc = Document()
        element = doc.create_element("div", classes={"spinner"})
        sheet = parse_stylesheet(".spinner { animation: spin 2s; }")
        assert animation_for(sheet, element).name == "spin"

    def test_transition_missing_duration_raises(self):
        with pytest.raises(CssSyntaxError):
            parse_transition_value(value_tokens("width"))


@given(
    tag=st.sampled_from(["div", "span", "p", "ul"]),
    element_id=st.text(alphabet="abcxyz", min_size=1, max_size=6),
    classes=st.sets(st.sampled_from(["a", "b", "nav", "item"]), max_size=3),
)
def test_property_generated_compound_selectors_match_their_element(tag, element_id, classes):
    doc = Document()
    element = doc.create_element(tag, element_id=element_id, classes=classes)
    selector = tag + f"#{element_id}" + "".join(f".{c}" for c in sorted(classes))
    assert parse_selector(selector).matches(element)
    assert parse_selector(selector + ":QoS").matches(element)


class TestComputedStyle:
    def test_cascade_merge(self):
        doc = Document()
        element = doc.create_element("div", element_id="x", classes={"card"})
        sheet = parse_stylesheet(
            "div { color: blue; margin: 4px } "
            ".card { color: green } "
            "#x { padding: 2px }"
        )
        style = sheet.computed_style(element)
        assert style == {"color": "green", "margin": "4px", "padding": "2px"}

    def test_inline_overrides(self):
        doc = Document()
        element = doc.create_element("div")
        element.style["color"] = "red"
        sheet = parse_stylesheet("div { color: blue }")
        assert sheet.computed_style(element)["color"] == "red"

    def test_unmatched_element_gets_inline_only(self):
        doc = Document()
        element = doc.create_element("p")
        element.style["width"] = "1px"
        sheet = parse_stylesheet("div { color: blue }")
        assert sheet.computed_style(element) == {"width": "1px"}

    def test_agrees_with_resolve(self):
        doc = Document()
        element = doc.create_element("div", classes={"a", "b"})
        sheet = parse_stylesheet(
            ".a { x: 1; y: 1 } .b { x: 2 } div.a.b { z: 3 }"
        )
        computed = sheet.computed_style(element)
        for prop in ("x", "y", "z"):
            assert computed[prop] == sheet.resolve(element, prop).value
