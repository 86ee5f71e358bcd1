"""System-level invariants and fuzzing with hypothesis.

These tests exercise cross-module properties that unit tests cannot:
energy conservation, frame-attribution bookkeeping balance, parser
totality (malformed CSS never escapes the CssError hierarchy), and
whole-stack robustness under randomly generated interaction traces.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.browser import Browser, Page
from repro.browser.frame_tracker import FrameTracker
from repro.browser.messages import InputMsg
from repro.core import AnnotationRegistry, GreenWebRuntime
from repro.core.governors import InteractiveGovernor, PinnedGovernor
from repro.errors import BrowserError, ReproError
from repro.hardware import CpuConfig, WorkUnit, odroid_xu_e
from repro.scenarios import build_live_scenario
from repro.web import Callback, parse_html
from repro.web.css.parser import parse_stylesheet
from repro.web.events import EventType


# ----------------------------------------------------------------------
# Parser totality
# ----------------------------------------------------------------------
class TestCssFuzz:
    @given(st.text(max_size=200))
    @settings(max_examples=200)
    def test_arbitrary_text_never_escapes_css_errors(self, text):
        try:
            parse_stylesheet(text)
        except ReproError:
            pass  # CssSyntaxError / SelectorError are the contract

    @given(
        st.lists(
            st.sampled_from(
                ["div", "#a", ".b", ":QoS", "{", "}", ":", ";", ",",
                 "width", "100px", "2s", "continuous", "single", "short",
                 "onclick-qos", " "]
            ),
            max_size=30,
        )
    )
    @settings(max_examples=200)
    def test_css_token_soup(self, pieces):
        try:
            parse_stylesheet("".join(pieces))
        except ReproError:
            pass

    @given(
        prop=st.sampled_from(["onclick-qos", "onscroll-qos", "ontouchmove-qos"]),
        ti=st.integers(min_value=1, max_value=10_000),
        spread=st.integers(min_value=0, max_value=10_000),
    )
    def test_valid_greenweb_rules_always_extract(self, prop, ti, spread):
        from repro.core.language import extract_annotations

        css = f"div:QoS {{ {prop}: continuous, {ti}, {ti + spread}; }}"
        annotations = extract_annotations(parse_stylesheet(css))
        assert len(annotations) == 1
        assert annotations[0].spec.target.imperceptible_ms == ti


# ----------------------------------------------------------------------
# Frame tracker bookkeeping
# ----------------------------------------------------------------------
class TestTrackerInvariants:
    @given(st.lists(st.booleans(), min_size=1, max_size=40))
    def test_balanced_retain_release_completes_exactly_once(self, pattern):
        tracker = FrameTracker()
        completions = []
        tracker._on_input_complete = completions.append
        msg = InputMsg(1, 0, EventType.CLICK)
        tracker.input_received(msg)
        # Retain for every element, then release in pattern-determined
        # interleaving; always net-balanced at the end.
        outstanding = 0
        for flag in pattern:
            if flag or outstanding == 0:
                tracker.retain(1)
                outstanding += 1
            else:
                tracker.release(1, 10)
                outstanding -= 1
        for _ in range(outstanding):
            tracker.release(1, 20)
        assert tracker.record(1).completed
        # Completion may legally fire more than once only if the record
        # was re-opened by a retain after completion.
        assert len(completions) >= 1

    def test_release_without_retain_rejected(self):
        tracker = FrameTracker()
        tracker.input_received(InputMsg(1, 0, EventType.CLICK))
        with pytest.raises(BrowserError):
            tracker.release(1)

    def test_duplicate_uid_rejected(self):
        tracker = FrameTracker()
        tracker.input_received(InputMsg(1, 0, EventType.CLICK))
        with pytest.raises(BrowserError):
            tracker.input_received(InputMsg(1, 5, EventType.CLICK))


# ----------------------------------------------------------------------
# Hardware invariants
# ----------------------------------------------------------------------
class TestEnergyConservation:
    @given(
        bursts=st.lists(
            st.tuples(
                st.integers(min_value=1_000, max_value=5_000_000),  # cycles
                st.integers(min_value=100, max_value=50_000),  # gap us
            ),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    def test_total_energy_equals_sum_of_intervals(self, bursts):
        """The meter's running total equals power x duration summed over
        the piecewise-constant intervals it was driven through (the
        meter keeps no history; this test records the power changes)."""
        platform = odroid_xu_e()
        meter = platform.meter
        changes = [(platform.kernel.now_us, meter.current_power_w)]
        drive = meter.on_power_change

        def observe(now_us, breakdown):
            drive(now_us, breakdown)
            changes.append((now_us, breakdown.total_w))

        meter.on_power_change = observe
        context = platform.create_context("w")
        t = 0
        for cycles, gap in bursts:
            t += gap
            platform.kernel.schedule_at(
                t, lambda c=cycles: context.submit(WorkUnit(c))
            )
        platform.run_for(t + 2_000_000)
        ends = [time_us for time_us, _ in changes[1:]] + [platform.kernel.now_us]
        interval_sum = sum(
            power_w * (end_us - start_us) * 1e-6
            for (start_us, power_w), end_us in zip(changes, ends)
        )
        assert len(changes) >= 3  # at least one busy interval began and ended
        assert interval_sum == pytest.approx(meter.total_j, rel=1e-9)

    @given(
        configs=st.lists(
            st.sampled_from(
                [CpuConfig("big", f) for f in (800, 1200, 1800)]
                + [CpuConfig("little", f) for f in (350, 500, 600)]
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=30)
    def test_energy_monotone_under_any_switch_sequence(self, configs):
        """Energy never decreases and power never goes negative, no
        matter the DVFS request sequence."""
        platform = odroid_xu_e()
        last = 0.0
        for config in configs:
            platform.set_config(config)
            platform.run_for(5_000)
            platform.meter.finalize(platform.kernel.now_us)
            assert platform.meter.total_j >= last
            assert platform.meter.current_power_w >= 0
            last = platform.meter.total_j

    @given(
        cycles=st.integers(min_value=100_000, max_value=20_000_000),
        switch_at_us=st.integers(min_value=10, max_value=5_000),
        target=st.sampled_from(
            [CpuConfig("big", 800), CpuConfig("little", 600), CpuConfig("little", 350)]
        ),
    )
    @settings(max_examples=50)
    def test_preempted_task_duration_bounded(self, cycles, switch_at_us, target):
        """A task interrupted by one switch completes no earlier than
        the all-fast bound and no later than the all-slow bound plus
        the switching overhead."""
        platform = odroid_xu_e()  # starts big@1800
        context = platform.create_context("w")
        done = []
        context.submit(WorkUnit(cycles), on_complete=lambda t: done.append(t.completed_us))
        platform.kernel.schedule_at(switch_at_us, lambda: platform.set_config(target))
        platform.run_for(60_000_000)
        assert done
        fast = WorkUnit(cycles).duration_us(1.0, 1800)
        spec = platform.cluster(target.cluster).spec
        slow = WorkUnit(cycles).duration_us(spec.ipc_factor, target.freq_mhz)
        overhead = 120  # max(freq switch, migration)
        assert done[0] >= min(fast, slow) - 1
        assert done[0] <= max(fast, slow) + switch_at_us + overhead + 1


# ----------------------------------------------------------------------
# Whole-stack robustness under random interaction traces
# ----------------------------------------------------------------------
def _random_page():
    markup = """
    <style>
      #a { transition: width 0.3s; }
      div#a:QoS { onclick-qos: continuous; ontouchstart-qos: single, short; }
      div#b:QoS { onclick-qos: single, 40, 400; onscroll-qos: continuous; }
    </style>
    <div id="a"></div><div id="b"></div>
    """
    document, sheet = parse_html(markup)
    page = Page(name="fuzz", document=document, stylesheet=sheet,
                native_scroll_complexity=0.3)
    a = document.get_element_by_id("a")
    b = document.get_element_by_id("b")

    def on_a(ctx):
        ctx.do_work(400_000)
        ctx.set_style(a, "width", "50px")

    def on_b(ctx):
        ctx.do_work(900_000)
        ctx.mark_dirty(0.7)
        ctx.set_timeout(lambda c: c.do_work(200_000), 12)

    a.add_event_listener("click", Callback(on_a, "a"))
    b.add_event_listener("click", Callback(on_b, "b"))
    return page


_EVENTS = [
    (EventType.CLICK, "a"),
    (EventType.CLICK, "b"),
    (EventType.TOUCHSTART, "a"),
    (EventType.SCROLL, "b"),
    (EventType.TOUCHMOVE, "b"),
]


class TestWholeStackFuzz:
    @given(
        schedule=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=400_000),
                st.integers(min_value=0, max_value=len(_EVENTS) - 1),
            ),
            min_size=1,
            max_size=25,
        ),
        policy_kind=st.sampled_from(["greenweb", "perf", "interactive"]),
    )
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_traces_never_break_invariants(self, schedule, policy_kind):
        page = _random_page()
        platform = odroid_xu_e()
        if policy_kind == "greenweb":
            registry = AnnotationRegistry.from_stylesheet(page.stylesheet)
            scenario = build_live_scenario("imperceptible", platform)
            policy = GreenWebRuntime(platform, registry, scenario)
        elif policy_kind == "perf":
            policy = PinnedGovernor(platform, CpuConfig("big", 1800))
        else:
            policy = InteractiveGovernor(platform)
        browser = Browser(platform, page, policy=policy)

        for at_us, index in schedule:
            event_type, target_id = _EVENTS[index]
            target = page.document.get_element_by_id(target_id)
            platform.kernel.schedule_at(
                at_us, lambda e=event_type, t=target: browser.dispatch_event(e, t)
            )
        platform.run_for(3_000_000)

        # Invariant: every input completed with balanced bookkeeping.
        for record in browser.tracker.records:
            assert record.completed, f"uid {record.uid} never completed"
            assert record.outstanding == 0
            for latency in record.frame_latencies_us:
                assert latency > 0
        # Invariant: inputs dispatched == records tracked.
        assert browser.stats.inputs == len(browser.tracker.records)
        # Invariant: energy accounting is live and sane.
        platform.meter.finalize(platform.kernel.now_us)
        assert platform.meter.total_j > 0


class TestMultiSwitchExecution:
    @given(
        cycles=st.integers(min_value=1_000_000, max_value=30_000_000),
        switches=st.lists(
            st.tuples(
                st.integers(min_value=50, max_value=2_000),  # gap before switch
                st.sampled_from(
                    [CpuConfig("big", 800), CpuConfig("big", 1800),
                     CpuConfig("little", 350), CpuConfig("little", 600)]
                ),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_task_survives_arbitrary_switch_storms(self, cycles, switches):
        """A task preempted by any sequence of DVFS switches completes,
        within [fastest-config time, slowest-config time + total
        overheads + scheduling gaps]."""
        platform = odroid_xu_e()
        context = platform.create_context("w")
        done = []
        context.submit(WorkUnit(cycles), on_complete=lambda t: done.append(t.completed_us))
        t = 0
        for gap, config in switches:
            t += gap
            platform.kernel.schedule_at(t, lambda c=config: platform.set_config(c))
        platform.run_for(300_000_000)
        assert done, "task never completed"
        fastest = WorkUnit(cycles).duration_us(1.0, 1800)
        slowest = WorkUnit(cycles).duration_us(0.5, 350)
        max_overheads = 120 * (len(switches) + 2)
        assert done[0] >= fastest - 1
        assert done[0] <= slowest + t + max_overheads + 1


class TestAnimationFrameBounds:
    @given(duration_ms=st.integers(min_value=100, max_value=1_500))
    @settings(max_examples=15, deadline=None)
    def test_animation_frame_count_tracks_duration(self, duration_ms):
        """An unimpeded animation produces ~duration/16.67ms frames
        (within slack for start alignment), and always terminates."""
        markup = "<style>#a { transition: left 10s; }</style><div id='a'></div>"
        document, sheet = parse_html(markup)
        page = Page(name="anim", document=document, stylesheet=sheet)
        platform = odroid_xu_e()
        browser = Browser(platform, page)
        a = document.get_element_by_id("a")
        a.add_event_listener(
            "click",
            Callback(
                lambda ctx: ctx.animate(a, "left", duration_ms=float(duration_ms),
                                        frame_complexity=0.3,
                                        frame_script_cycles=100_000),
                "go",
            ),
        )
        msg = browser.dispatch_event("click", a)
        platform.run_for((duration_ms + 500) * 1_000)
        record = browser.tracker.record(msg.uid)
        assert record.completed
        expected = duration_ms / 16.667
        assert expected - 3 <= record.frame_count <= expected + 3
