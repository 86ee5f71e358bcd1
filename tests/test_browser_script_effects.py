"""Tests for the extended script effects in the browser engine:
stopPropagation, preventDefault, classList mutation, setInterval."""

import pytest

from repro.browser import Browser, Page
from repro.errors import BrowserError
from repro.hardware import odroid_xu_e
from repro.sim.tracing import TraceLog
from repro.web import Callback, ScriptContext, Document, parse_html


def make_browser(markup="<div id='outer'><div id='inner'></div></div>", **page_kwargs):
    platform = odroid_xu_e(trace=TraceLog())
    document, sheet = parse_html(markup)
    page = Page(name="fx", document=document, stylesheet=sheet, **page_kwargs)
    browser = Browser(platform, page)
    return browser


class TestPropagationControl:
    def test_stop_propagation_halts_bubbling(self):
        browser = make_browser()
        hits = []
        inner = browser.page.document.get_element_by_id("inner")
        outer = browser.page.document.get_element_by_id("outer")

        def inner_cb(ctx):
            hits.append("inner")
            ctx.stop_propagation()

        inner.add_event_listener("click", Callback(inner_cb, "inner"))
        outer.add_event_listener("click", Callback(lambda ctx: hits.append("outer"), "outer"))
        browser.dispatch_event("click", inner)
        browser.run_for(100_000)
        assert hits == ["inner"]

    def test_without_stop_both_run(self):
        browser = make_browser()
        hits = []
        inner = browser.page.document.get_element_by_id("inner")
        outer = browser.page.document.get_element_by_id("outer")
        inner.add_event_listener("click", Callback(lambda ctx: hits.append("inner")))
        outer.add_event_listener("click", Callback(lambda ctx: hits.append("outer")))
        browser.dispatch_event("click", inner)
        browser.run_for(100_000)
        assert hits == ["inner", "outer"]


class TestPreventDefault:
    def test_prevent_default_suppresses_native_scroll(self):
        browser = make_browser(native_scroll_complexity=0.5)
        inner = browser.page.document.get_element_by_id("inner")
        inner.add_event_listener(
            "touchmove", Callback(lambda ctx: ctx.prevent_default(), "block")
        )
        browser.dispatch_event("touchmove", inner)
        browser.run_for(100_000)
        assert browser.stats.frames == 0

    def test_default_scroll_without_prevent(self):
        browser = make_browser(native_scroll_complexity=0.5)
        inner = browser.page.document.get_element_by_id("inner")
        inner.add_event_listener("touchmove", Callback(lambda ctx: ctx.do_work(1_000)))
        browser.dispatch_event("touchmove", inner)
        browser.run_for(100_000)
        assert browser.stats.frames == 1


class TestClassMutation:
    def test_add_and_remove_class_apply_and_dirty(self):
        browser = make_browser()
        inner = browser.page.document.get_element_by_id("inner")

        def toggle(ctx):
            if "open" in inner.classes:
                ctx.remove_class(inner, "open")
            else:
                ctx.add_class(inner, "open")

        inner.add_event_listener("click", Callback(toggle, "toggle"))
        browser.dispatch_event("click", inner)
        browser.run_for(100_000)
        assert "open" in inner.classes
        assert browser.stats.frames == 1
        browser.dispatch_event("click", inner)
        browser.run_for(100_000)
        assert "open" not in inner.classes
        assert browser.stats.frames == 2


class TestIntervals:
    def test_interval_fires_until_max(self):
        browser = make_browser()
        inner = browser.page.document.get_element_by_id("inner")
        hits = []

        def start(ctx):
            ctx.set_interval(lambda c: hits.append(c.now_ms), period_ms=20, max_fires=5)

        inner.add_event_listener("click", Callback(start, "start"))
        msg = browser.dispatch_event("click", inner)
        browser.run_for(1_000_000)
        assert len(hits) == 5
        assert browser.tracker.record(msg.uid).completed

    def test_clear_interval_stops_early(self):
        browser = make_browser()
        inner = browser.page.document.get_element_by_id("inner")
        hits = []

        def tick(ctx):
            hits.append(1)
            if len(hits) == 3:
                ctx.clear_interval("heartbeat")

        def start(ctx):
            ctx.set_interval(tick, period_ms=10, tag="heartbeat", max_fires=100)

        inner.add_event_listener("click", Callback(start, "start"))
        msg = browser.dispatch_event("click", inner)
        browser.run_for(1_000_000)
        assert len(hits) == 3
        assert browser.tracker.record(msg.uid).completed

    def test_interval_keeps_input_open(self):
        browser = make_browser()
        inner = browser.page.document.get_element_by_id("inner")
        inner.add_event_listener(
            "click",
            Callback(lambda ctx: ctx.set_interval(lambda c: None, 50, max_fires=4)),
        )
        msg = browser.dispatch_event("click", inner)
        browser.run_for(120_000)  # two fires in
        assert not browser.tracker.record(msg.uid).completed
        browser.run_for(500_000)
        assert browser.tracker.record(msg.uid).completed

    def test_validation(self):
        ctx = ScriptContext(Document())
        with pytest.raises(BrowserError):
            ctx.set_interval(lambda c: None, period_ms=0)
        with pytest.raises(BrowserError):
            ctx.set_interval(lambda c: None, period_ms=10, max_fires=0)

    def test_auto_tag_unique(self):
        ctx = ScriptContext(Document())
        tag_a = ctx.set_interval(lambda c: None, 10)
        tag_b = ctx.set_interval(lambda c: None, 10)
        assert tag_a != tag_b


class TestScriptErrorContainment:
    """Browsers do not crash on page script errors; neither do we."""

    def test_error_contained_and_logged(self):
        browser = make_browser()
        inner = browser.page.document.get_element_by_id("inner")

        def broken(ctx):
            ctx.do_work(10_000)
            ctx.mark_dirty()
            raise ValueError("undefined is not a function")

        inner.add_event_listener("click", Callback(broken, "broken"))
        msg = browser.dispatch_event("click", inner)
        browser.run_for(100_000)
        assert browser.stats.script_errors == 1
        # Effects recorded before the throw still happened.
        assert browser.stats.frames == 1
        # The input completes normally.
        assert browser.tracker.record(msg.uid).completed
        errors = browser.platform.trace.filter(category="console", name="error")
        assert errors and errors[0]["exception"] == "ValueError"

    def test_later_listeners_still_run(self):
        browser = make_browser()
        hits = []
        inner = browser.page.document.get_element_by_id("inner")
        outer = browser.page.document.get_element_by_id("outer")

        def broken(ctx):
            raise RuntimeError("boom")

        inner.add_event_listener("click", Callback(broken, "broken"))
        outer.add_event_listener("click", Callback(lambda ctx: hits.append("outer")))
        browser.dispatch_event("click", inner)
        browser.run_for(100_000)
        assert hits == ["outer"]

    def test_infrastructure_errors_still_propagate(self):
        from repro.web import ScriptContext, Document

        def misuse(ctx):
            ctx.do_work(-5)  # negative work: library misuse, not JS

        with pytest.raises(BrowserError):
            Callback(misuse).invoke(ScriptContext(Document()))
