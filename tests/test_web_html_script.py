"""Tests for the HTML parser, events module, and the script model."""

import pytest

from repro.errors import BrowserError, DomError, HtmlParseError
from repro.web import (
    Callback,
    Document,
    EventType,
    InteractionKind,
    MOBILE_EVENT_TYPES,
    ScriptContext,
    parse_html,
)
from repro.web.events import (
    DESKTOP_EVENT_TYPES,
    Event,
    INTERACTION_EVENTS,
    coerce_event_type,
    dispatch_order,
)


class TestHtmlParser:
    def test_basic_structure(self):
        doc, _ = parse_html("<div id='main'><span class='x y'></span></div>")
        main = doc.get_element_by_id("main")
        assert main is not None
        assert main.children[0].classes == {"x", "y"}

    def test_style_block_collected(self):
        doc, sheet = parse_html(
            "<style>div#a { transition: width 2s; }</style><div id='a'></div>"
        )
        assert len(sheet) == 1
        assert doc.get_element_by_id("a") is not None

    def test_void_and_self_closing_tags(self):
        doc, _ = parse_html("<div><img src='x'><br/><p id='after'></p></div>")
        assert doc.get_element_by_id("after").parent.tag == "div"

    def test_inline_style_attribute(self):
        doc, _ = parse_html("<div id='a' style='width: 100px; color: red'></div>")
        element = doc.get_element_by_id("a")
        assert element.style == {"width": "100px", "color": "red"}

    def test_mismatched_end_tags_tolerated(self):
        doc, _ = parse_html("<div><span></div>")
        assert doc.root.children[0].tag == "div"

    def test_html_tag_merged_into_root(self):
        doc, _ = parse_html("<html class='page'><body><div id='x'></div></body></html>")
        assert "page" in doc.root.classes
        assert doc.get_element_by_id("x") is not None

    def test_paper_fig4_markup(self):
        markup = """
        <style>
          #ex { width: 100px; transition: width 2s; }
          div#ex:QoS { ontouchstart-qos: continuous; }
        </style>
        <div id="ex"></div>
        """
        doc, sheet = parse_html(markup)
        assert len(sheet.greenweb_rules()) == 1
        assert doc.get_element_by_id("ex") is not None

    def test_each_parse_returns_a_fresh_document(self):
        markup = """
        <html class='page'>
        <style>#a { width: 1px; } #a:QoS { onclick-qos: single, short; }</style>
        <div id='a' class='zeta alpha' data-k='v' style='width: 2px'>
          <span id='b'></span>
        </div>
        </html>
        """
        first, first_sheet = parse_html(markup)
        second, second_sheet = parse_html(markup)
        assert first is not second and first_sheet is not second_sheet
        a1, a2 = first.get_element_by_id("a"), second.get_element_by_id("a")
        assert a1 is not a2
        assert list(a2.classes) == ["zeta", "alpha"]
        assert a2.class_attr == "zeta alpha"
        assert a2.matches("[class^=zeta]")
        assert a2.document is second
        assert a2.parent.document is second

        a1.classes.add("extra")
        a1.style["color"] = "red"
        a1.attributes["data-k"] = "changed"
        a1.add_event_listener("click", Callback(lambda ctx: None, "cb"))
        a1.append_child(first.create_element("p", "new"))
        a1.remove_child(first.get_element_by_id("b"))
        first.root.classes.discard("page")
        first_sheet.append(first_sheet.rules[0])

        for doc, sheet in ((second, second_sheet), parse_html(markup)):
            a = doc.get_element_by_id("a")
            assert list(a.classes) == ["zeta", "alpha"]
            assert a.style == {"width": "2px"}
            assert a.attributes == {"data-k": "v"}
            assert a.listened_event_types == []
            assert [c.id for c in a.children] == ["b"]
            assert doc.get_element_by_id("new") is None
            assert doc.get_element_by_id("b").parent is a
            assert "page" in doc.root.classes
            assert len(sheet) == 2

    def test_duplicate_id_raises_on_every_call(self):
        markup = "<div id='dup'></div><span id='dup'></span>"
        for _ in range(3):
            with pytest.raises(HtmlParseError):
                parse_html(markup)


class TestEvents:
    def test_mobile_event_set_matches_paper(self):
        names = {e.value for e in MOBILE_EVENT_TYPES}
        assert {"click", "scroll", "touchstart", "touchend", "touchmove", "load"} == names

    def test_desktop_events_excluded(self):
        assert "drag" in DESKTOP_EVENT_TYPES
        assert not any(e.value in DESKTOP_EVENT_TYPES for e in MOBILE_EVENT_TYPES)

    def test_coerce(self):
        assert coerce_event_type("click") is EventType.CLICK
        assert coerce_event_type(EventType.SCROLL) is EventType.SCROLL
        with pytest.raises(DomError):
            coerce_event_type("mouseover")

    def test_ltm_interaction_events(self):
        assert INTERACTION_EVENTS[InteractionKind.LOADING] == (EventType.LOAD,)
        assert EventType.CLICK in INTERACTION_EVENTS[InteractionKind.TAPPING]
        assert EventType.TOUCHMOVE in INTERACTION_EVENTS[InteractionKind.MOVING]

    def test_propagation_path(self):
        doc = Document()
        outer = doc.create_element("div")
        inner = doc.create_element("button", parent=outer)
        event = Event(EventType.CLICK, inner)
        assert [e.tag for e in event.propagation_path] == ["button", "div", "html"]

    def test_dispatch_order_bubbles(self):
        doc = Document()
        outer = doc.create_element("div")
        inner = doc.create_element("button", parent=outer)
        inner_cb = Callback(lambda ctx: None, "inner")
        outer_cb = Callback(lambda ctx: None, "outer")
        outer.add_event_listener("click", outer_cb)
        inner.add_event_listener("click", inner_cb)
        pairs = dispatch_order(Event(EventType.CLICK, inner))
        assert [cb.name for _, cb in pairs] == ["inner", "outer"]


class TestScriptModel:
    def make_ctx(self):
        return ScriptContext(Document())

    def test_do_work_accumulates(self):
        ctx = self.make_ctx()
        ctx.do_work(1000)
        ctx.do_work(500, fixed_us=10)
        assert ctx.effects.work.cycles == 1500
        assert ctx.effects.work.fixed_us == 10

    def test_negative_work_rejected(self):
        with pytest.raises(BrowserError):
            self.make_ctx().do_work(-1)

    def test_style_write_marks_needs_frame(self):
        ctx = self.make_ctx()
        element = ctx.document.create_element("div")
        assert not ctx.effects.needs_frame
        ctx.set_style(element, "WIDTH", "500px", complexity=2.0)
        assert ctx.effects.needs_frame
        assert ctx.effects.style_writes[0].property == "width"
        assert ctx.effects.frame_complexity == 2.0

    def test_mark_dirty_complexity_takes_max(self):
        ctx = self.make_ctx()
        ctx.mark_dirty(1.0)
        ctx.mark_dirty(3.0)
        ctx.mark_dirty(2.0)
        assert ctx.effects.frame_complexity == 3.0

    def test_raf_detection(self):
        ctx = self.make_ctx()
        assert not ctx.effects.uses_raf
        ctx.request_animation_frame(lambda c: None)
        assert ctx.effects.uses_raf

    def test_animate_detection(self):
        ctx = self.make_ctx()
        element = ctx.document.create_element("div")
        ctx.animate(element, "left", duration_ms=400)
        assert ctx.effects.uses_animate
        assert ctx.effects.animate_calls[0].duration_ms == 400

    def test_animate_rejects_nonpositive_duration(self):
        ctx = self.make_ctx()
        with pytest.raises(BrowserError):
            ctx.animate(ctx.document.create_element("div"), "x", 0)

    def test_timeout(self):
        ctx = self.make_ctx()
        ctx.set_timeout(lambda c: None, 250)
        assert ctx.effects.timeouts[0].delay_ms == 250
        with pytest.raises(BrowserError):
            ctx.set_timeout(lambda c: None, -1)

    def test_callback_invoke_returns_effects(self):
        def body(ctx):
            ctx.do_work(42)

        effects = Callback(body).invoke(self.make_ctx())
        assert effects.work.cycles == 42

    def test_callback_wrap(self):
        cb = Callback(lambda ctx: None, "x")
        assert Callback.wrap(cb) is cb
        assert Callback.wrap(lambda ctx: None).name == "<lambda>"

    def test_state_is_shared_reference(self):
        state = {"count": 0}
        ctx = ScriptContext(Document(), state=state)
        ctx.state["count"] += 1
        assert state["count"] == 1


class TestCapturePhase:
    def fixture(self):
        doc = Document()
        outer = doc.create_element("div")
        inner = doc.create_element("button", parent=outer)
        return doc, outer, inner

    def test_capture_runs_before_bubble(self):
        doc, outer, inner = self.fixture()
        order = []
        outer.add_event_listener("click", Callback(lambda c: order.append("outer-cap"), "oc"),
                                 capture=True)
        inner.add_event_listener("click", Callback(lambda c: order.append("inner"), "i"))
        outer.add_event_listener("click", Callback(lambda c: order.append("outer-bub"), "ob"))
        pairs = dispatch_order(Event(EventType.CLICK, inner))
        names = [cb.name for _e, cb in pairs]
        assert names == ["oc", "i", "ob"]

    def test_capture_order_is_root_first(self):
        doc, outer, inner = self.fixture()
        order = []
        doc.root.add_event_listener("click", Callback(lambda c: None, "root-cap"),
                                    capture=True)
        outer.add_event_listener("click", Callback(lambda c: None, "outer-cap"),
                                 capture=True)
        pairs = dispatch_order(Event(EventType.CLICK, inner))
        names = [cb.name for _e, cb in pairs]
        assert names == ["root-cap", "outer-cap"]

    def test_target_capture_listener_runs_before_target_bubble(self):
        doc, _outer, inner = self.fixture()
        inner.add_event_listener("click", Callback(lambda c: None, "t-bub"))
        inner.add_event_listener("click", Callback(lambda c: None, "t-cap"), capture=True)
        pairs = dispatch_order(Event(EventType.CLICK, inner))
        names = [cb.name for _e, cb in pairs]
        assert names == ["t-cap", "t-bub"]

    def test_remove_capture_listener(self):
        from repro.errors import DomError

        doc, outer, _inner = self.fixture()
        cb = Callback(lambda c: None)
        outer.add_event_listener("click", cb, capture=True)
        outer.remove_event_listener("click", cb, capture=True)
        assert outer.listeners("click", capture=True) == []
        with pytest.raises(DomError):
            outer.remove_event_listener("click", cb, capture=True)

    def test_capture_listener_counts_for_listened_types(self):
        doc, outer, _inner = self.fixture()
        outer.add_event_listener("scroll", Callback(lambda c: None), capture=True)
        assert "scroll" in outer.listened_event_types

    def test_stop_propagation_in_capture_blocks_target(self):
        from repro.browser import Browser, Page
        from repro.hardware import odroid_xu_e

        doc, outer, inner = self.fixture()
        page = Page(name="cap", document=doc)
        platform = odroid_xu_e()
        browser = Browser(platform, page)
        hits = []

        def capture_block(ctx):
            hits.append("capture")
            ctx.stop_propagation()

        outer.add_event_listener("click", Callback(capture_block, "cap"), capture=True)
        inner.add_event_listener("click", Callback(lambda ctx: hits.append("target"), "t"))
        browser.dispatch_event("click", inner)
        browser.run_for(100_000)
        assert hits == ["capture"]
