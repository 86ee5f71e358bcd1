"""The documentation's code samples, executed.

Every runnable snippet in README.md and docs/language.md is mirrored
here so documentation drift fails the suite rather than the reader.
"""



class TestReadmeQuickstart:
    def test_session_snippet(self):
        from repro import Session

        session = Session.for_application("cnet", governor="greenweb",
                                          scenario="imperceptible")
        result = session.run_micro_interaction()
        assert result.active_energy_j > 0
        assert result.mean_violation_pct >= 0

    def test_custom_page_snippet(self):
        from repro import Session
        from repro.browser.page import Page
        from repro.web import Callback, parse_html

        document, css = parse_html("""
          <style>
            #box { transition: width 1s; }
            div#box:QoS { onclick-qos: continuous; }
          </style>
          <div id="box"></div>
        """)
        page = Page(name="mine", document=document, stylesheet=css)
        box = page.element_by_id("box")
        box.add_event_listener(
            "click",
            Callback(lambda ctx: ctx.set_style(box, "width", "400px"), "expand"),
        )

        platform, browser, policy = Session.for_page(page, governor="greenweb")
        browser.dispatch_event("click", box)
        browser.run_for(2_000_000)
        assert platform.meter.total_j > 0
        assert browser.stats.frames > 30  # a 1 s transition at ~60 fps


class TestLanguageDocExamples:
    def test_fig4_annotation(self):
        from repro import AnnotationRegistry
        from repro.web import parse_html

        document, sheet = parse_html("""
          <style>
            #ex { width: 100px; transition: width 2s; }
            div#ex:QoS { ontouchstart-qos: continuous; }
          </style>
          <div id="ex"></div>
        """)
        registry = AnnotationRegistry.from_stylesheet(sheet)
        element = document.get_element_by_id("ex")
        spec = registry.lookup(element, "touchstart")
        assert str(spec.qos_type) == "continuous"

    def test_fig5_explicit_targets(self):
        from repro import SCENARIOS, AnnotationRegistry
        from repro.web import Document
        from repro.web.css.parser import parse_stylesheet

        sheet = parse_stylesheet(
            "div#canvas:QoS { ontouchmove-qos: continuous, 20, 100; }"
        )
        registry = AnnotationRegistry.from_stylesheet(sheet)
        doc = Document()
        canvas = doc.create_element("div", element_id="canvas")
        spec = registry.lookup(canvas, "touchmove")
        assert SCENARIOS.build("imperceptible").operative_target_ms(spec.target) == 20
        assert SCENARIOS.build("usable").operative_target_ms(spec.target) == 100

    def test_cascade_example(self):
        from repro import AnnotationRegistry
        from repro.web import Document
        from repro.web.css.parser import parse_stylesheet

        sheet = parse_stylesheet("""
          div:QoS      { onclick-qos: single, long;  }
          div#pay:QoS  { onclick-qos: single, short; }
        """)
        registry = AnnotationRegistry.from_stylesheet(sheet)
        doc = Document()
        pay = doc.create_element("div", element_id="pay")
        other = doc.create_element("div")
        assert registry.lookup(pay, "click").target.imperceptible_ms == 100
        assert registry.lookup(other, "click").target.imperceptible_ms == 1000

    def test_roundtrip_mentioned_in_docs(self):
        from repro.core.language import annotation_to_css, extract_annotations
        from repro.web.css.parser import parse_stylesheet

        source = "div#ex:QoS { ontouchmove-qos: continuous, 20, 100; }"
        annotation = extract_annotations(parse_stylesheet(source))[0]
        rendered = annotation_to_css(annotation)
        reparsed = extract_annotations(parse_stylesheet(rendered))[0]
        assert reparsed.spec == annotation.spec


class TestApiDocExamples:
    def test_cli_surface_matches_doc(self):
        from repro.cli import build_parser

        parser = build_parser()
        commands = set()
        for action in parser._subparsers._group_actions:
            commands |= set(action.choices)
        assert commands == {
            "apps", "run", "analyze", "figures", "fleet", "serve",
            "checkpoint", "autogreen",
        }

    def test_public_init_exports(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ names missing attribute {name}"

    def test_runtime_knobs_exist(self):
        """docs/api.md lists the GreenWebRuntime knobs; they must exist."""
        import inspect

        from repro import GreenWebRuntime

        params = set(inspect.signature(GreenWebRuntime.__init__).parameters)
        for knob in (
            "misprediction_tolerance",
            "recalibration_threshold",
            "ewma_model_update",
            "ewma_alpha",
            "idle_grace_ms",
            "target_headroom",
            "fallback_spec",
            "idle_config",
            "profile_both_clusters",
        ):
            assert knob in params, f"documented knob {knob} missing"
