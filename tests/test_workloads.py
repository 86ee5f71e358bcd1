"""Tests for the workload applications and interaction traces."""

import dataclasses

import pytest

from repro.browser import Browser
from repro.core import AnnotationRegistry
from repro.core.qos import QoSType as QT
from repro.errors import DomError, WorkloadError
from repro.hardware import odroid_xu_e
from repro.web import Callback
from repro.web.events import EventType, InteractionKind
from repro.workloads import (
    APP_NAMES,
    InteractionDriver,
    build_app,
    table3_specs,
)
from repro.workloads.registry import app_template
from repro.workloads.interactions import (
    InteractionTrace,
    ScriptedEvent,
    load_interaction,
    move_burst,
    repeat_interaction,
    tap,
)


class TestTraceBuilders:
    def test_load(self):
        events = load_interaction()
        assert len(events) == 1
        assert events[0].event_type is EventType.LOAD
        assert events[0].target_id == ""

    def test_tap_plain_and_envelope(self):
        assert [e.event_type for e in tap(0, "x")] == [EventType.CLICK]
        triple = tap(0, "x", with_touch_envelope=True)
        assert [e.event_type for e in triple] == [
            EventType.TOUCHSTART,
            EventType.TOUCHEND,
            EventType.CLICK,
        ]

    def test_move_burst_counts(self):
        events = move_burst(0, "c", move_count=10)
        assert len(events) == 12  # start + 10 moves + end
        assert events[0].event_type is EventType.TOUCHSTART
        assert events[-1].event_type is EventType.TOUCHEND
        assert all(e.event_type is EventType.TOUCHMOVE for e in events[1:-1])

    def test_move_burst_timestamps_monotonic(self):
        events = move_burst(100, "c", move_count=5)
        times = [e.at_us for e in events]
        assert times == sorted(times)

    def test_repeat_interaction(self):
        trace = repeat_interaction(lambda t: tap(t, "x"), 3, 1_000_000, "r")
        assert len(trace) == 3
        assert trace.duration_us == 2_000_000

    def test_negative_time_rejected(self):
        with pytest.raises(WorkloadError):
            ScriptedEvent(-1, EventType.CLICK, "x")


class TestTable3Fidelity:
    """The traces must match Table 3's event counts and durations."""

    def test_all_twelve_apps_present(self):
        assert len(APP_NAMES) == 12
        assert set(APP_NAMES) == {
            "bbc", "google", "camanjs", "lzma_js", "msn", "todo",
            "amazon", "craigslist", "paperjs", "cnet", "goo_ne_jp", "w3schools",
        }

    @pytest.mark.parametrize("name", APP_NAMES)
    def test_full_trace_event_count_matches_spec(self, name):
        bundle = build_app(name)
        assert len(bundle.full_trace) == bundle.spec.full_events

    @pytest.mark.parametrize("name", APP_NAMES)
    def test_full_trace_duration_close_to_spec(self, name):
        bundle = build_app(name)
        assert bundle.full_trace.duration_s <= bundle.spec.full_duration_s + 1
        assert bundle.full_trace.duration_s >= bundle.spec.full_duration_s * 0.5

    def test_paper_averages(self):
        """Sec. 7.3: ~94 events and ~43 s per full interaction."""
        specs = table3_specs()
        avg_events = sum(s.full_events for s in specs) / len(specs)
        avg_duration = sum(s.full_duration_s for s in specs) / len(specs)
        assert 90 <= avg_events <= 98
        assert 40 <= avg_duration <= 46

    def test_interaction_class_split(self):
        """Table 3: 2 Loading, 7 Tapping, 3 Moving; 6 single + 6 continuous."""
        specs = table3_specs()
        kinds = [s.micro_interaction for s in specs]
        assert kinds.count(InteractionKind.LOADING) == 2
        assert kinds.count(InteractionKind.TAPPING) == 7
        assert kinds.count(InteractionKind.MOVING) == 3
        types = [s.micro_qos_type for s in specs]
        assert types.count(QT.SINGLE) == 6
        assert types.count(QT.CONTINUOUS) == 6


class TestAnnotations:
    @pytest.mark.parametrize("name", APP_NAMES)
    def test_manual_annotations_parse_and_resolve(self, name):
        bundle = build_app(name)
        registry = AnnotationRegistry.from_stylesheet(bundle.page.stylesheet)
        assert len(registry) >= 1

    @pytest.mark.parametrize("name", APP_NAMES)
    def test_micro_trace_targets_are_annotated(self, name):
        """Micro-benchmarks are fully annotated by construction
        (Sec. 7.2: 'we manually apply GreenWeb annotations')."""
        bundle = build_app(name)
        registry = AnnotationRegistry.from_stylesheet(bundle.page.stylesheet)
        for event in bundle.micro_trace.events:
            target = (
                bundle.page.document.get_element_by_id(event.target_id)
                if event.target_id
                else bundle.page.document.root
            )
            spec = registry.lookup(target, event.event_type)
            assert spec is not None, f"{name}: {event.event_type} unannotated"
            assert spec.qos_type is bundle.spec.micro_qos_type

    @pytest.mark.parametrize("name", APP_NAMES)
    def test_full_trace_annotation_coverage_near_table3(self, name):
        """Measured coverage of the full trace tracks Table 3's column
        (within a sensible tolerance: our event mix is synthetic)."""
        bundle = build_app(name)
        registry = AnnotationRegistry.from_stylesheet(bundle.page.stylesheet)
        annotated = 0
        for event in bundle.full_trace.events:
            target = (
                bundle.page.document.get_element_by_id(event.target_id)
                if event.target_id
                else bundle.page.document.root
            )
            if registry.lookup(target, event.event_type) is not None:
                annotated += 1
        coverage = 100.0 * annotated / len(bundle.full_trace)
        assert abs(coverage - bundle.spec.annotation_pct) <= 15.0

    def test_unannotated_build_has_no_annotations(self):
        bundle = build_app("todo", with_manual_annotations=False)
        registry = AnnotationRegistry.from_stylesheet(bundle.page.stylesheet)
        assert len(registry) == 0


class TestRegistryApi:
    def test_unknown_app_rejected(self):
        with pytest.raises(WorkloadError):
            build_app("netscape")

    def test_determinism(self):
        a = build_app("amazon", seed=7)
        b = build_app("amazon", seed=7)
        assert [e.at_us for e in a.full_trace.events] == [
            e.at_us for e in b.full_trace.events
        ]
        assert list(a.page.rng.integers(0, 1000, 5)) == list(
            b.page.rng.integers(0, 1000, 5)
        )


def page_snapshot(bundle):
    """Everything a session can observe of a built page, as plain data."""
    return (
        [
            (e.tag, e.id, list(e.classes), dict(e.attributes), dict(e.style),
             e.listened_event_types, [c.tag for c in e.children])
            for e in bundle.page.document.all_elements()
        ],
        str(bundle.page.stylesheet),
    )


def mutate_todo_page(bundle):
    """Every kind of DOM and stylesheet write a caller can make."""
    doc = bundle.page.document
    button = doc.get_element_by_id("add-btn")
    yield lambda: button.classes.add("pressed")
    yield lambda: button.classes.discard("button")
    yield lambda: button.style.__setitem__("height", "9px")
    yield lambda: button.attributes.__setitem__("aria-pressed", "true")
    yield lambda: button.add_event_listener("touchstart", Callback(lambda ctx: None, "extra"))
    yield lambda: button.append_child(doc.create_element("span", "badge"))
    toggle = doc.get_element_by_id("item-toggle")
    yield lambda: toggle.parent.remove_child(toggle)


class TestSharedParseCaches:
    def test_builds_share_no_mutable_state(self):
        # A default build shares the app's frozen template document:
        # every write raises, so nothing can leak between builds.
        first, second = build_app("todo", 3), build_app("todo", 3)
        pristine = page_snapshot(second)
        assert first.page.document is second.page.document
        assert first.page.stylesheet is not second.page.stylesheet
        for write in mutate_todo_page(first):
            with pytest.raises(DomError, match="frozen document"):
                write()
        first.page.stylesheet.append(first.page.stylesheet.rules[0])
        first.page.stylesheet.extend(first.page.stylesheet)
        assert page_snapshot(first) != pristine
        assert page_snapshot(second) == pristine

        # A build whose caller edits the page gets a private document.
        private = build_app("todo", 3, with_manual_annotations=False)
        private.apply_manual_annotations()
        assert private.page.document is not first.page.document
        assert page_snapshot(private) == pristine
        for write in mutate_todo_page(private):
            write()
        assert page_snapshot(private) != pristine

        third = build_app("todo", 3)
        assert page_snapshot(third) == pristine
        assert third.page.document.get_element_by_id("badge") is None
        assert third.page.document.get_element_by_id("item-toggle") is not None

    def test_manual_annotations_fresh_per_build(self):
        bundle = build_app("todo", with_manual_annotations=False)
        base = len(bundle.page.stylesheet)
        bundle.apply_manual_annotations()
        bundle.apply_manual_annotations()
        assert len(bundle.page.stylesheet) == base + 2
        assert len(build_app("todo").page.stylesheet) == base + 1


class TestAppTemplates:
    def test_template_built_once_per_process(self):
        assert app_template("todo") is app_template("todo")
        assert build_app("todo", 1).micro_trace is build_app("todo", 2).micro_trace
        with pytest.raises(WorkloadError, match="unknown application"):
            app_template("netscape")

    @pytest.mark.parametrize("name", APP_NAMES)
    def test_template_traces_cannot_be_mutated(self, name):
        template = app_template(name)
        for trace in (template.micro_trace, template.full_trace):
            assert isinstance(trace.events, tuple)
            with pytest.raises(dataclasses.FrozenInstanceError):
                trace.events = ()
            with pytest.raises(dataclasses.FrozenInstanceError):
                trace.events[0].at_us = 0
            assert not hasattr(trace, "extend")

    @pytest.mark.parametrize("name", APP_NAMES)
    def test_shared_template_document_refuses_writes(self, name):
        template = app_template(name)
        bundle = build_app(name, 4)
        assert (bundle.page.document is template.document) != template.writes_dom
        root = template.document.root
        element = next(template.document.root.descendants())
        for write in (
            lambda: element.style.__setitem__("width", "1px"),
            lambda: element.classes.add("hot"),
            lambda: element.attributes.update({"x": "1"}),
            lambda: setattr(element, "id", "renamed"),
            lambda: root.add_event_listener("click", Callback(lambda ctx: None)),
            lambda: root.remove_child(element),
            lambda: template.document.create_element("div"),
        ):
            with pytest.raises(DomError, match="frozen document"):
                write()

    def test_misclassified_app_fails_loudly(self):
        # goo_ne_jp's panel toggle writes an inline style: served from
        # the shared document, the session raises instead of leaking.
        shared = dataclasses.replace(app_template("goo_ne_jp"), writes_dom=False)
        with pytest.raises(DomError, match="frozen document"):
            execute_bundle(shared.instantiate(0))

    def test_goo_panel_width_stays_in_its_session(self):
        first = build_app("goo_ne_jp", 0)
        execute_bundle(first)
        panel = first.page.document.get_element_by_id("panel")
        assert panel.style.get("width") in ("100px", "500px")
        for document in (build_app("goo_ne_jp", 0).page.document,
                         app_template("goo_ne_jp").document):
            assert "width" not in document.get_element_by_id("panel").style


def execute_bundle(bundle):
    """Run ``bundle``'s micro trace under greenweb/imperceptible."""
    from repro.evaluation.runner import SessionExecution

    execution = SessionExecution(bundle, "greenweb", trace_kind="micro", settle_s=1.0)
    execution.run()
    return execution.finish()


class TestDriver:
    def test_replays_trace_into_browser(self):
        platform = odroid_xu_e()
        bundle = build_app("todo")
        browser = Browser(platform, bundle.page)
        driver = InteractionDriver(browser)
        driver.run(bundle.micro_trace)
        assert browser.stats.inputs == len(bundle.micro_trace)
        assert browser.stats.frames >= 1
        assert all(r.completed for r in browser.tracker.records)

    def test_missing_target_raises(self):
        platform = odroid_xu_e()
        bundle = build_app("todo")
        browser = Browser(platform, bundle.page)
        driver = InteractionDriver(browser)
        trace = InteractionTrace("bad", [ScriptedEvent(0, EventType.CLICK, "ghost")])
        driver.schedule(trace)
        with pytest.raises(WorkloadError):
            platform.run_for(1_000)
