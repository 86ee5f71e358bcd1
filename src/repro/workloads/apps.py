"""The twelve applications of the paper's Table 3.

Each builder returns the application's
:class:`~repro.workloads.base.AppTemplate`: its DOM (parsed from the
app's markup, with the callbacks attached), its stylesheet rules, the
developer's manual GreenWeb annotation CSS (including the Sec. 7.3
long-latency corrections), and the micro / full interaction traces
sized to Table 3.  Nothing here depends on the workload seed; the
registry builds each template once per process and
:meth:`~repro.workloads.base.AppTemplate.instantiate` adds the seeded
per-session parts.

Work magnitudes (reference big-core Mcycles) are calibrated so each
application plays the role the paper reports for it — see the comments
on every builder and DESIGN.md Sec. 2 for the substitution argument.
"""

from __future__ import annotations

from typing import Callable

from repro.browser.stages import RenderCostModel
from repro.core.qos import QoSType
from repro.sim.clock import s_to_us
from repro.web.css.stylesheet import StyleRule
from repro.web.dom import Document
from repro.web.html import parse_html
from repro.workloads.markup import APP_MARKUP
from repro.web.events import EventType, InteractionKind
from repro.web.script import Callback
from repro.workloads.base import (
    ApplicationSpec,
    AppTemplate,
    bimodal_mcycles,
    lognormal_mcycles,
    surge_complexity,
)
from repro.workloads.interactions import (
    InteractionTrace,
    ScriptedEvent,
    load_interaction,
    move_burst,
    repeat_interaction,
    tap,
)


def _markup(name: str) -> tuple[Document, tuple[StyleRule, ...]]:
    """An application's DOM and base stylesheet rules, from its HTML
    document (:mod:`repro.workloads.markup`) parsed by the library's
    own HTML/CSS engines."""
    document, sheet = parse_html(APP_MARKUP[name]())
    return document, tuple(sheet.rules)


def _spread(
    count: int,
    start_s: float,
    end_s: float,
    builder: Callable[[int], list[ScriptedEvent]],
) -> list[ScriptedEvent]:
    """``count`` interactions evenly spread over [start, end]."""
    if count <= 0:
        return []
    span = s_to_us(end_s) - s_to_us(start_s)
    step = span // max(1, count - 1) if count > 1 else 0
    events: list[ScriptedEvent] = []
    for index in range(count):
        events.extend(builder(s_to_us(start_s) + index * step))
    return events


# ======================================================================
# Loading applications (single, long)
# ======================================================================
def build_bbc() -> AppTemplate:
    """BBC: news front page.  Heavy load (~2.5 s at peak) whose first
    meaningful frame is the QoS frame; the minimum-frequency profiling
    run blows the 1 s imperceptible target — the paper's Fig. 9b BBC
    violation.  Post-load ad/analytics timers are pure post-frame work."""
    spec = ApplicationSpec(
        name="bbc", display_name="BBC", domain="news",
        micro_interaction=InteractionKind.LOADING,
        micro_qos_type=QoSType.SINGLE, micro_target_label="(1, 10) s",
        full_duration_s=86, full_events=60, annotation_pct=20.0,
        annotated_manually=True,
    )
    doc, rules = _markup("bbc")

    def on_load(ctx):
        ctx.do_work(lognormal_mcycles(ctx.rng, 820.0, sigma=0.06), fixed_us=120_000)
        ctx.mark_dirty(3.0)  # first meaningful frame
        ctx.set_timeout(lambda c: c.do_work(lognormal_mcycles(c.rng, 250.0)), 600)
        ctx.set_timeout(lambda c: c.do_work(lognormal_mcycles(c.rng, 120.0)), 1500)

    def on_story(ctx):
        ctx.do_work(lognormal_mcycles(ctx.rng, 35.0))
        ctx.mark_dirty(1.2)

    def on_misc(ctx):
        ctx.do_work(lognormal_mcycles(ctx.rng, 12.0))
        ctx.mark_dirty(0.6)

    doc.root.add_event_listener("load", Callback(on_load, "bbcLoad"))
    doc.get_element_by_id("story-link").add_event_listener("click", Callback(on_story, "openStory"))
    doc.get_element_by_id("misc-area").add_event_listener("click", Callback(on_misc, "misc"))

    manual_css = """
    html:QoS { onload-qos: single, long; }
    div#story-link:QoS { onclick-qos: single, short; }
    """
    micro = repeat_interaction(load_interaction, repetitions=3,
                               spacing_us=s_to_us(28), name="bbc-micro-loading")
    full = InteractionTrace("bbc-full", (
        *load_interaction(0),
        *_spread(11, 6.0, 82.0, lambda t: tap(t, "story-link")),
        *_spread(48, 7.0, 86.0, lambda t: tap(t, "misc-area")),
    ))
    return AppTemplate(
        spec, doc, rules, manual_css, micro, full,
        render_cost=RenderCostModel(
            style_cycles=1_200_000, layout_cycles=2_500_000,
            paint_cycles=3_000_000, composite_cycles=800_000,
            composite_fixed_us=2_500,
        ),
    )


def build_google() -> AppTemplate:
    """Google: search page.  Lighter load than BBC (fits the 1 s target
    even at modest configurations) plus instant-search suggestion taps."""
    spec = ApplicationSpec(
        name="google", display_name="Google", domain="search",
        micro_interaction=InteractionKind.LOADING,
        micro_qos_type=QoSType.SINGLE, micro_target_label="(1, 10) s",
        full_duration_s=31, full_events=26, annotation_pct=87.5,
    )
    doc, rules = _markup("google")

    def on_load(ctx):
        ctx.do_work(lognormal_mcycles(ctx.rng, 600.0, sigma=0.08), fixed_us=60_000)
        ctx.mark_dirty(1.5)

    def on_suggest(ctx):
        ctx.do_work(lognormal_mcycles(ctx.rng, 18.0))
        ctx.mark_dirty(0.5)

    def on_footer(ctx):
        ctx.do_work(lognormal_mcycles(ctx.rng, 6.0))
        ctx.mark_dirty(0.3)

    doc.root.add_event_listener("load", Callback(on_load, "googleLoad"))
    doc.get_element_by_id("search-box").add_event_listener("click", Callback(on_suggest, "suggest"))
    doc.get_element_by_id("footer").add_event_listener("click", Callback(on_footer, "footer"))

    manual_css = """
    html:QoS { onload-qos: single, long; }
    div#search-box:QoS { onclick-qos: single, short; }
    """
    micro = repeat_interaction(load_interaction, repetitions=3,
                               spacing_us=s_to_us(12), name="google-micro-loading")
    full = InteractionTrace("google-full", (
        *load_interaction(0),
        *_spread(22, 3.0, 30.6, lambda t: tap(t, "search-box")),
        *_spread(3, 5.0, 29.0, lambda t: tap(t, "footer")),
    ))
    return AppTemplate(spec, doc, rules, manual_css, micro, full)


# ======================================================================
# Tapping applications, single QoS type
# ======================================================================
def build_camanjs() -> AppTemplate:
    """CamanJS: client-side image editing.  A filter tap is a heavy but
    little-core-feasible job against the (1, 10) s target — one of the
    three apps whose imperceptible-mode savings come from little-core
    configurations (Fig. 9a discussion)."""
    spec = ApplicationSpec(
        name="camanjs", display_name="CamanJS", domain="image editing",
        micro_interaction=InteractionKind.TAPPING,
        micro_qos_type=QoSType.SINGLE, micro_target_label="(1, 10) s",
        full_duration_s=49, full_events=24, annotation_pct=100.0,
    )
    doc, rules = _markup("camanjs")

    def on_filter(ctx):
        # ~200 Mcycles: 0.11 s at big-max, ~0.8 s on little@600 —
        # inside TI=1 s either way, so the predictor picks little.
        ctx.do_work(lognormal_mcycles(ctx.rng, 200.0, sigma=0.12), fixed_us=8_000)
        ctx.mark_dirty(2.0)

    doc.get_element_by_id("filter-btn").add_event_listener("click", Callback(on_filter, "applyFilter"))

    manual_css = "div#filter-btn:QoS { onclick-qos: single, long; }\n"
    micro = repeat_interaction(lambda t: tap(t, "filter-btn"), repetitions=5,
                               spacing_us=s_to_us(8), name="camanjs-micro-tapping")
    full = InteractionTrace("camanjs-full", (
        *_spread(24, 1.0, 48.5, lambda t: tap(t, "filter-btn")),
    ))
    return AppTemplate(spec, doc, rules, manual_css, micro, full)


def build_lzma_js() -> AppTemplate:
    """LZMA-JS: in-browser compression.  Bimodal job sizes: most taps
    compress small buffers (little-core friendly) but occasional large
    buffers overshoot the 1 s imperceptible target at low frequencies —
    together with profiling runs, the Fig. 9b LZMA-JS violations."""
    spec = ApplicationSpec(
        name="lzma_js", display_name="LZMA-JS", domain="utility",
        micro_interaction=InteractionKind.TAPPING,
        micro_qos_type=QoSType.SINGLE, micro_target_label="(1, 10) s",
        full_duration_s=53, full_events=39, annotation_pct=100.0,
    )
    doc, rules = _markup("lzma_js")

    def on_compress(ctx):
        ctx.do_work(bimodal_mcycles(ctx.rng, 240.0, 400.0, heavy_probability=0.10, sigma=0.08),
                    fixed_us=5_000)
        ctx.mark_dirty(0.8)

    doc.get_element_by_id("compress-btn").add_event_listener(
        "click", Callback(on_compress, "compress"))

    manual_css = "div#compress-btn:QoS { onclick-qos: single, long; }\n"
    micro = repeat_interaction(lambda t: tap(t, "compress-btn"), repetitions=5,
                               spacing_us=s_to_us(8), name="lzma-micro-tapping")
    full = InteractionTrace("lzma-full", (
        *_spread(39, 1.0, 52.5, lambda t: tap(t, "compress-btn")),
    ))
    return AppTemplate(spec, doc, rules, manual_css, micro, full)


def build_msn() -> AppTemplate:
    """MSN: news portal.  Nav taps need near-peak performance to stay
    inside the 100 ms imperceptible target, so the minimum-frequency
    profiling run causes significant violations (Sec. 7.2)."""
    spec = ApplicationSpec(
        name="msn", display_name="MSN", domain="news portal",
        micro_interaction=InteractionKind.TAPPING,
        micro_qos_type=QoSType.SINGLE, micro_target_label="(100, 300) ms",
        full_duration_s=59, full_events=126, annotation_pct=51.2,
    )
    doc, rules = _markup("msn")

    def on_nav(ctx):
        # ~100 Mcycles: ~60 ms at big-max (inside TI=100 ms), ~130 ms
        # at big-min (a violation during the second profiling run).
        ctx.do_work(lognormal_mcycles(ctx.rng, 90.0, sigma=0.05), fixed_us=4_000)
        ctx.mark_dirty(2.2)

    def on_teaser(ctx):
        ctx.do_work(lognormal_mcycles(ctx.rng, 25.0))
        ctx.mark_dirty(1.0)

    doc.get_element_by_id("nav-item").add_event_listener("click", Callback(on_nav, "navTap"))
    doc.get_element_by_id("teaser").add_event_listener("click", Callback(on_teaser, "teaser"))

    manual_css = """
    div#nav-item:QoS {
      onclick-qos: single, short;
      ontouchstart-qos: single, short;
      ontouchend-qos: single, short;
    }
    """
    micro = repeat_interaction(lambda t: tap(t, "nav-item"), repetitions=6,
                               spacing_us=s_to_us(3), name="msn-micro-tapping")
    full = InteractionTrace("msn-full", (
        *_spread(21, 1.0, 56.0, lambda t: tap(t, "nav-item", with_touch_envelope=True)),
        *_spread(21, 2.0, 58.0, lambda t: tap(t, "teaser", with_touch_envelope=True)),
    ))
    return AppTemplate(
        spec, doc, rules, manual_css, micro, full,
        render_cost=RenderCostModel(
            style_cycles=1_000_000, layout_cycles=2_000_000,
            paint_cycles=2_500_000, composite_cycles=700_000,
            composite_fixed_us=2_500,
        ),
    )


def build_todo() -> AppTemplate:
    """Todo: the classic TodoMVC app.  Very light taps against a 100 ms
    target — the poster child for little-core-only operation and the
    largest imperceptible-mode savings (Fig. 9a discussion)."""
    spec = ApplicationSpec(
        name="todo", display_name="Todo", domain="productivity",
        micro_interaction=InteractionKind.TAPPING,
        micro_qos_type=QoSType.SINGLE, micro_target_label="(100, 300) ms",
        full_duration_s=26, full_events=26, annotation_pct=38.3,
    )
    doc, rules = _markup("todo")

    def on_add(ctx):
        ctx.do_work(lognormal_mcycles(ctx.rng, 8.0))
        ctx.mark_dirty(0.5)

    def on_toggle(ctx):
        ctx.do_work(lognormal_mcycles(ctx.rng, 4.0))
        ctx.mark_dirty(0.3)

    doc.get_element_by_id("add-btn").add_event_listener("click", Callback(on_add, "addTodo"))
    doc.get_element_by_id("item-toggle").add_event_listener("click", Callback(on_toggle, "toggle"))

    manual_css = "div#add-btn:QoS { onclick-qos: single, short; }\n"
    micro = repeat_interaction(lambda t: tap(t, "add-btn"), repetitions=6,
                               spacing_us=s_to_us(2), name="todo-micro-tapping")
    full = InteractionTrace("todo-full", (
        *_spread(10, 0.5, 25.0, lambda t: tap(t, "add-btn")),
        *_spread(16, 1.0, 26.0, lambda t: tap(t, "item-toggle")),
    ))
    return AppTemplate(
        spec, doc, rules, manual_css, micro, full,
        render_cost=RenderCostModel(
            style_cycles=200_000, layout_cycles=400_000,
            paint_cycles=600_000, composite_cycles=250_000,
            composite_fixed_us=1_500,
        ),
    )


# ======================================================================
# Moving applications (continuous)
# ======================================================================
def build_amazon() -> AppTemplate:
    """Amazon: product-feed scrolling.  Scroll frames carry moderate
    render complexity with occasional surges as product tiles land."""
    spec = ApplicationSpec(
        name="amazon", display_name="Amazon", domain="e-commerce",
        micro_interaction=InteractionKind.MOVING,
        micro_qos_type=QoSType.CONTINUOUS, micro_target_label="(16.6, 33.3) ms",
        full_duration_s=36, full_events=101, annotation_pct=33.0,
        annotated_manually=True,
    )
    doc, rules = _markup("amazon")

    def scroll_handler(ctx):
        ctx.do_work(lognormal_mcycles(ctx.rng, 1.6, sigma=0.2))
        ctx.mark_dirty(surge_complexity(ctx.rng, 1.1, surge_probability=0.05,
                                        surge_factor=2.0))

    for element_id in ("feed", "sidebar", "reviews"):
        doc.get_element_by_id(element_id).add_event_listener(
            "touchmove", Callback(scroll_handler, f"scroll-{element_id}"))

    def on_buy(ctx):
        ctx.do_work(lognormal_mcycles(ctx.rng, 30.0))
        ctx.mark_dirty(1.5)

    doc.get_element_by_id("buy-btn").add_event_listener("click", Callback(on_buy, "buy"))

    manual_css = """
    div#feed:QoS {
      ontouchmove-qos: continuous;
      ontouchstart-qos: continuous;
      ontouchend-qos: continuous;
    }
    """
    micro = repeat_interaction(
        lambda t: move_burst(t, "feed", move_count=60),
        repetitions=3, spacing_us=s_to_us(4), name="amazon-micro-moving")
    full = InteractionTrace("amazon-full", (
        *move_burst(s_to_us(2), "feed", move_count=31),
        *move_burst(s_to_us(14), "sidebar", move_count=31),
        *move_burst(s_to_us(34.8), "reviews", move_count=31),
        *tap(s_to_us(10), "buy-btn"),
        *tap(s_to_us(30), "buy-btn"),
    ))
    return AppTemplate(
        spec, doc, rules, manual_css, micro, full,
        native_scroll_complexity=0.4,
        render_cost=RenderCostModel(
            style_cycles=700_000, layout_cycles=1_400_000,
            paint_cycles=1_800_000, composite_cycles=600_000,
            composite_fixed_us=2_200,
        ),
    )


def build_craigslist() -> AppTemplate:
    """Craigslist: text-heavy listing scroll — light frames, so even
    tight continuous targets fit cheap configurations."""
    spec = ApplicationSpec(
        name="craigslist", display_name="Craigslist", domain="classifieds",
        micro_interaction=InteractionKind.MOVING,
        micro_qos_type=QoSType.CONTINUOUS, micro_target_label="(16.6, 33.3) ms",
        full_duration_s=25, full_events=22, annotation_pct=84.6,
    )
    doc, rules = _markup("craigslist")

    def scroll_handler(ctx):
        ctx.do_work(lognormal_mcycles(ctx.rng, 0.9, sigma=0.2))
        ctx.mark_dirty(0.8)

    doc.get_element_by_id("list").add_event_listener(
        "touchmove", Callback(scroll_handler, "listScroll"))

    def on_post(ctx):
        ctx.do_work(lognormal_mcycles(ctx.rng, 15.0))
        ctx.mark_dirty(1.0)

    doc.get_element_by_id("post-link").add_event_listener("click", Callback(on_post, "openPost"))

    manual_css = """
    ul#list:QoS {
      ontouchmove-qos: continuous;
      ontouchstart-qos: continuous;
      ontouchend-qos: continuous;
    }
    """
    micro = repeat_interaction(
        lambda t: move_burst(t, "list", move_count=60),
        repetitions=3, spacing_us=s_to_us(4), name="craigslist-micro-moving")
    full = InteractionTrace("craigslist-full", (
        *move_burst(s_to_us(2), "list", move_count=18),
        *tap(s_to_us(15), "post-link"),
        *tap(s_to_us(24), "post-link"),
    ))
    return AppTemplate(
        spec, doc, rules, manual_css, micro, full,
        native_scroll_complexity=0.3,
        render_cost=RenderCostModel(
            style_cycles=300_000, layout_cycles=600_000,
            paint_cycles=800_000, composite_cycles=300_000,
            composite_fixed_us=1_800,
        ),
    )


def build_paperjs() -> AppTemplate:
    """Paper.js: canvas drawing.  The paper's Fig. 5 idiom: touchmove
    handlers drive a rAF drawing loop; every frame pays real script
    work (path tessellation) plus canvas repaint."""
    spec = ApplicationSpec(
        name="paperjs", display_name="Paper.js", domain="drawing",
        micro_interaction=InteractionKind.MOVING,
        micro_qos_type=QoSType.CONTINUOUS, micro_target_label="(16.6, 33.3) ms",
        full_duration_s=16, full_events=560, annotation_pct=100.0,
    )
    doc, rules = _markup("paperjs")

    def draw_tick(ctx):
        ctx.do_work(lognormal_mcycles(ctx.rng, 3.0, sigma=0.15))
        ctx.mark_dirty(1.2)
        if ctx.now_ms - ctx.state.get("last_move_ms", -1e12) < 60.0:
            ctx.request_animation_frame(draw_tick)
        else:
            ctx.state["ticking"] = False

    def on_move(ctx):
        ctx.state["last_move_ms"] = ctx.now_ms
        ctx.do_work(lognormal_mcycles(ctx.rng, 0.3, sigma=0.2))
        if not ctx.state.get("ticking", False):
            ctx.state["ticking"] = True
            ctx.request_animation_frame(draw_tick)

    doc.get_element_by_id("canvas").add_event_listener(
        "touchmove", Callback(on_move, "onMove"))

    manual_css = """
    div#canvas:QoS {
      ontouchmove-qos: continuous;
      ontouchstart-qos: continuous;
      ontouchend-qos: continuous;
    }
    """
    micro = repeat_interaction(
        lambda t: move_burst(t, "canvas", move_count=120),
        repetitions=2, spacing_us=s_to_us(5), name="paperjs-micro-moving")
    full = InteractionTrace("paperjs-full", (
        *move_burst(s_to_us(1), "canvas", move_count=278),
        *move_burst(s_to_us(10.9), "canvas", move_count=278),
    ))
    return AppTemplate(
        spec, doc, rules, manual_css, micro, full,
        render_cost=RenderCostModel(
            style_cycles=200_000, layout_cycles=300_000,
            paint_cycles=2_200_000, composite_cycles=500_000,
            composite_fixed_us=2_000,
        ),
    )


# ======================================================================
# Tapping applications, continuous QoS type
# ======================================================================
def build_cnet() -> AppTemplate:
    """Cnet: tapping expands a media-heavy panel with a library-driven
    animation whose frames occasionally surge in complexity — the
    usable-mode violation case of Sec. 7.2."""
    spec = ApplicationSpec(
        name="cnet", display_name="Cnet", domain="tech news",
        micro_interaction=InteractionKind.TAPPING,
        micro_qos_type=QoSType.CONTINUOUS, micro_target_label="(16.6, 33.3) ms",
        full_duration_s=46, full_events=60, annotation_pct=55.3,
    )
    doc, rules = _markup("cnet")

    def on_menu(ctx):
        ctx.do_work(lognormal_mcycles(ctx.rng, 10.0))
        rng = ctx.rng
        ctx.animate(
            ctx.document.get_element_by_id("menu"), "height", duration_ms=600,
            frame_complexity=lambda: surge_complexity(
                rng, 1.2, surge_probability=0.15, surge_factor=3.0),
            frame_script_cycles=400_000,
        )

    def on_other(ctx):
        ctx.do_work(lognormal_mcycles(ctx.rng, 8.0))
        ctx.mark_dirty(0.8)

    doc.get_element_by_id("menu").add_event_listener("click", Callback(on_menu, "expandMenu"))
    doc.get_element_by_id("other").add_event_listener("click", Callback(on_other, "other"))

    manual_css = """
    div#menu:QoS {
      onclick-qos: continuous;
      ontouchstart-qos: continuous;
      ontouchend-qos: continuous;
    }
    """
    micro = repeat_interaction(lambda t: tap(t, "menu"), repetitions=6,
                               spacing_us=s_to_us(3), name="cnet-micro-tapping")
    full = InteractionTrace("cnet-full", (
        *_spread(11, 1.0, 42.0, lambda t: tap(t, "menu", with_touch_envelope=True)),
        *_spread(9, 3.0, 45.0, lambda t: tap(t, "other", with_touch_envelope=True)),
    ))
    return AppTemplate(spec, doc, rules, manual_css, micro, full)


def build_goo_ne_jp() -> AppTemplate:
    """Goo.ne.jp: portal whose nav panels expand via a CSS transition —
    the paper's Fig. 4 annotation pattern verbatim."""
    spec = ApplicationSpec(
        name="goo_ne_jp", display_name="Goo.ne.jp", domain="portal",
        micro_interaction=InteractionKind.TAPPING,
        micro_qos_type=QoSType.CONTINUOUS, micro_target_label="(16.6, 33.3) ms",
        full_duration_s=16, full_events=23, annotation_pct=51.8,
    )
    doc, rules = _markup("goo_ne_jp")

    def on_panel(ctx):
        ctx.do_work(lognormal_mcycles(ctx.rng, 8.0))
        panel = ctx.document.get_element_by_id("panel")
        current = panel.style.get("width", "100px")
        ctx.set_style(panel, "width", "500px" if current == "100px" else "100px",
                      complexity=1.5)

    def on_link(ctx):
        ctx.do_work(lognormal_mcycles(ctx.rng, 10.0))
        ctx.mark_dirty(0.8)

    doc.get_element_by_id("panel").add_event_listener("touchstart", Callback(on_panel, "expandPanel"))
    doc.get_element_by_id("link").add_event_listener("click", Callback(on_link, "openLink"))

    manual_css = """
    div#panel:QoS {
      ontouchstart-qos: continuous;
      ontouchend-qos: continuous;
      onclick-qos: continuous;
    }
    """
    micro = repeat_interaction(
        lambda t: [ScriptedEvent(t, EventType.TOUCHSTART, "panel")],
        repetitions=6, spacing_us=s_to_us(2), name="goo-micro-tapping")
    full = InteractionTrace("goo-full", (
        *_spread(4, 1.0, 13.0, lambda t: tap(t, "panel", with_touch_envelope=True)),
        *_spread(3, 2.5, 14.0, lambda t: tap(t, "link", with_touch_envelope=True)),
        *_spread(2, 6.0, 15.0, lambda t: tap(t, "link")),
    ))
    # The panel toggle writes the panel's inline width: every session
    # needs its own copy of the document.
    return AppTemplate(spec, doc, rules, manual_css, micro, full, writes_dom=True)


def build_w3schools() -> AppTemplate:
    """W3Schools: try-it editor panes animate open; frame complexity
    surges (code highlighting batches) drive the usable-mode violations
    the paper singles out (Sec. 7.2)."""
    spec = ApplicationSpec(
        name="w3schools", display_name="W3Schools", domain="education",
        micro_interaction=InteractionKind.TAPPING,
        micro_qos_type=QoSType.CONTINUOUS, micro_target_label="(16.6, 33.3) ms",
        full_duration_s=64, full_events=59, annotation_pct=100.0,
    )
    doc, rules = _markup("w3schools")

    def on_tryit(ctx):
        ctx.do_work(lognormal_mcycles(ctx.rng, 12.0))
        rng = ctx.rng
        ctx.animate(
            ctx.document.get_element_by_id("tryit"), "height", duration_ms=800,
            frame_complexity=lambda: surge_complexity(
                rng, 1.1, surge_probability=0.20, surge_factor=3.5),
            frame_script_cycles=500_000,
        )

    def on_nav(ctx):
        ctx.do_work(lognormal_mcycles(ctx.rng, 10.0))
        ctx.mark_dirty(0.7)

    doc.get_element_by_id("tryit").add_event_listener("click", Callback(on_tryit, "openTryit"))
    doc.get_element_by_id("nav").add_event_listener("click", Callback(on_nav, "nav"))

    manual_css = """
    div#tryit:QoS {
      onclick-qos: continuous;
      ontouchstart-qos: continuous;
      ontouchend-qos: continuous;
    }
    div#nav:QoS { onclick-qos: single, short; }
    """
    micro = repeat_interaction(lambda t: tap(t, "tryit"), repetitions=6,
                               spacing_us=s_to_us(3), name="w3schools-micro-tapping")
    full = InteractionTrace("w3schools-full", (
        *_spread(19, 1.0, 63.5, lambda t: tap(t, "tryit", with_touch_envelope=True)),
        *_spread(2, 20.0, 50.0, lambda t: tap(t, "nav")),
    ))
    return AppTemplate(spec, doc, rules, manual_css, micro, full)


#: name -> builder, in the paper's Table 3 order.
APP_BUILDERS: dict[str, Callable[[], AppTemplate]] = {
    "bbc": build_bbc,
    "google": build_google,
    "camanjs": build_camanjs,
    "lzma_js": build_lzma_js,
    "msn": build_msn,
    "todo": build_todo,
    "amazon": build_amazon,
    "craigslist": build_craigslist,
    "paperjs": build_paperjs,
    "cnet": build_cnet,
    "goo_ne_jp": build_goo_ne_jp,
    "w3schools": build_w3schools,
}
