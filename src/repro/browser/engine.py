"""The browser engine: input dispatch, frame pipeline, animations.

Ties together the pieces of Fig. 7: the browser process (input receive
+ Msg stamping), the renderer main thread (callbacks, style, layout,
paint), the compositor thread (composite + GPU), the VSync-driven
dirty-bit batching of Fig. 8, and the Sec. 6.4 transitive-closure
association of frames with their root input events.

Energy policies (:class:`BrowserPolicy`) observe inputs, scheduled
frames, displayed frames, and input completion — the exact hook points
the GreenWeb runtime (paper Sec. 6) needs, also sufficient for the
baseline governors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.browser.frame_tracker import FrameRecord, FrameTracker, InputRecord
from repro.browser.messages import FrameContributor, InputMsg, UidAllocator
from repro.browser.page import Page
from repro.browser.vsync import VSYNC_PERIOD_US, VsyncSource
from repro.hardware.core import ZERO_WORK, WorkUnit
from repro.hardware.platform import MobilePlatform
from repro.sim.clock import ms_to_us
from repro.web.css.transitions import parse_animation_value, transition_for
from repro.web.dom import Element
from repro.web.events import Event, EventType, coerce_event_type, dispatch_order
from repro.web.script import Callback, ScriptContext, ScriptEffects

#: One-way browser-process -> renderer IPC latency.
IPC_DELAY_US = 100


class BrowserPolicy:
    """Base class for energy policies attached to a browser.

    All hooks are no-ops; governors override what they need.  The
    browser calls :meth:`bind` once at attach time.
    """

    #: A dataclass of counters the policy keeps, or None.  The runner
    #: reports it as ``RunResult.runtime_stats``.
    stats = None

    def bind(self, browser: "Browser") -> None:
        """Called when the policy is attached; default stores a ref."""
        self.browser = browser

    def on_input(self, msg: InputMsg, event: Event) -> None:
        """A user input just arrived at the browser process."""

    def on_frame_scheduled(self, vsync_us: int, msgs: list[InputMsg]) -> None:
        """A VSync tick is about to produce a frame for these inputs."""

    def on_frame_displayed(self, frame: FrameRecord) -> None:
        """A frame reached the display; latencies are filled in."""

    def on_input_complete(self, record: InputRecord) -> None:
        """All frames associated with an input have been produced."""


class _ActiveAnimation:
    """A running animation producing one frame per VSync until end."""

    __slots__ = ("kind", "msg", "element", "name", "end_us",
                 "complexity", "script_cycles", "end_event")

    def __init__(
        self,
        kind: str,
        msg: InputMsg,
        element: Optional[Element],
        name: str,
        end_us: int,
        complexity: float,
        script_cycles: float = 0.0,
        end_event: Optional[EventType] = None,
    ) -> None:
        self.kind = kind  # "transition" | "animation" | "animate"
        self.msg = msg
        self.element = element
        self.name = name
        self.end_us = end_us
        self.complexity = complexity
        self.script_cycles = script_cycles
        self.end_event = end_event


@dataclass
class BrowserStats:
    """Run counters exposed for tests and reports."""

    inputs: int = 0
    frames: int = 0
    skipped_vsyncs: int = 0
    callbacks_run: int = 0
    script_errors: int = 0


class Browser:
    """A running browser instance hosting one page."""

    def __init__(
        self,
        platform: MobilePlatform,
        page: Page,
        policy: Optional[BrowserPolicy] = None,
        vsync_period_us: int = VSYNC_PERIOD_US,
    ) -> None:
        self.platform = platform
        self.page = page
        self.kernel = platform.kernel
        self.trace = platform.trace
        self._hooks = platform._hooks  # filled in place by attach
        self.main = platform.create_context("renderer_main")
        self.compositor = platform.create_context("compositor")
        self.tracker = FrameTracker(on_input_complete=self._input_completed)
        self.stats = BrowserStats()
        self._uids = UidAllocator()

        # Dirty state (Fig. 8 Part II): uid -> contributor, plus the
        # pending frame's complexity (max over contributions).
        self._dirty: dict[int, FrameContributor] = {}
        self._dirty_complexity = 0.0
        self._raf_queue: list[tuple[Callback, InputMsg]] = []
        self._animations: list[_ActiveAnimation] = []
        self._intervals: dict[str, dict] = {}
        self._frame_in_flight = False
        self._frame_seq = 0
        self._current_frame_vsync = 0
        #: the frame in the render stages and its per-stage work
        self._frame: Optional[FrameRecord] = None
        self._frame_work: tuple[WorkUnit, ...] = ()

        self.policy = policy if policy is not None else BrowserPolicy()
        self.policy.bind(self)

        self.vsync = VsyncSource(
            self.kernel, self._on_vsync, vsync_period_us, demand=self._vsync_demand
        )
        self.vsync.start()

    # ------------------------------------------------------------------
    # Input (browser process)
    # ------------------------------------------------------------------
    def dispatch_event(
        self,
        event_type: "EventType | str",
        target: Element,
        detail: Optional[dict] = None,
    ) -> InputMsg:
        """A user input arrives at the browser process *now*.

        Fig. 8 Part I: the input is stamped with a fresh UID and a
        start timestamp, then shipped to the renderer over IPC.

        Returns the stamped :class:`InputMsg` (its record accumulates
        frame latencies as the simulation progresses).
        """
        event_type = coerce_event_type(event_type)
        now = self.kernel._now_us
        msg = InputMsg(
            uid=self._uids.next_uid(),
            start_us=now,
            event_type=event_type,
            target_key=target_key(target),
        )
        event = Event(event_type, target, input_id=msg.uid, time_us=now)
        if detail:
            event.detail.update(detail)
        self.tracker.input_received(msg)
        self.stats.inputs += 1
        for observer in self._hooks["input_dispatched"]:
            observer.input_dispatched(now, msg)
        self.policy.on_input(msg, event)
        self.tracker.retain(msg.uid)  # released when renderer dispatch ends
        self.kernel.schedule_in(
            IPC_DELAY_US, lambda: self._renderer_dispatch(msg, event), label="ipc"
        )
        return msg

    def _renderer_dispatch(self, msg: InputMsg, event: Event) -> None:
        # Continuous-stream inputs (finger moves, scrolls) are coalesced
        # to the display refresh, as real browsers do; their frames are
        # judged on production latency (clock stamped at the producing
        # VSync -> clock_start None).  Discrete inputs are judged on
        # input-to-display latency.
        continuous_input = event.type in (EventType.SCROLL, EventType.TOUCHMOVE)
        clock_start = None if continuous_input else msg.start_us
        pairs = dispatch_order(event)
        default_prevented = False
        for _element, callback in pairs:
            effects = self._run_callback(callback, msg, event, clock_start_us=clock_start)
            default_prevented = default_prevented or effects.default_prevented
            if effects.propagation_stopped:
                # stopPropagation(): ancestors' listeners do not run.
                break
        if (
            continuous_input
            and self.page.native_scroll_complexity > 0
            and not default_prevented
        ):
            # Browser-native (compositor) scrolling produces a frame
            # even without application listeners, unless a listener
            # called preventDefault().
            self._mark_dirty(msg, self.page.native_scroll_complexity, None)
        self.tracker.release(msg.uid, self.kernel._now_us)

    def _dispatch_internal(
        self, event_type: EventType, target: Element, msg: InputMsg
    ) -> None:
        """Dispatch a browser-generated event (transitionend etc.).

        No new UID: the callbacks remain part of the root input's
        transitive closure (Sec. 6.4)."""
        event = Event(event_type, target, input_id=msg.uid, time_us=self.kernel._now_us)
        for _element, callback in dispatch_order(event):
            self._run_callback(callback, msg, event, clock_start_us=self.kernel._now_us)

    # ------------------------------------------------------------------
    # Callback execution (renderer main thread)
    # ------------------------------------------------------------------
    def _run_callback(
        self,
        callback: Callback,
        msg: InputMsg,
        event: Optional[Event],
        clock_start_us: Optional[int],
    ) -> ScriptEffects:
        ctx = ScriptContext(
            self.page.document,
            event=event,
            state=self.page.state,
            rng=self.page.rng,
            now_ms=self.kernel.now_ms,
        )
        effects = callback.invoke(ctx)
        self.stats.callbacks_run += 1
        if effects.error is not None:
            # The page's script error: logged to the console track,
            # never fatal to the engine (browsers keep running).
            self.stats.script_errors += 1
            if self.trace is not None:
                self.trace.emit(
                    self.kernel._now_us,
                    "console",
                    "error",
                    callback=effects.error.callback_name,
                    exception=effects.error.exception_type,
                    message=effects.error.message[:200],
                )
        self.tracker.retain(msg.uid)
        self.main.submit(
            effects.work,
            on_complete=lambda task: self._callback_finished(effects, msg, clock_start_us),
            label=f"callback:{callback.name}",
        )
        return effects

    def _callback_finished(
        self, effects: ScriptEffects, msg: InputMsg, clock_start_us: Optional[int]
    ) -> None:
        # Callback-completion latency is traced so the Sec. 6.3 ablation
        # can contrast it with true frame latency (prior work measured
        # only the former; the paper argues it is insufficient).
        if self.trace is not None:
            self.trace.emit(
                self.kernel._now_us,
                "callback",
                "finished",
                uid=msg.uid,
                latency_us=self.kernel._now_us - msg.start_us,
            )
        self._apply_effects(effects, msg, clock_start_us)
        self.tracker.release(msg.uid, self.kernel._now_us)

    def _apply_effects(
        self, effects: ScriptEffects, msg: InputMsg, clock_start_us: Optional[int]
    ) -> None:
        now = self.kernel._now_us
        for write in effects.style_writes:
            write.element.style[write.property] = write.value
            if write.property == "animation":
                self._start_css_animation(write.element, write.value, msg, write.complexity)
                continue
            spec = transition_for(self.page.stylesheet, write.element, write.property)
            if spec is not None:
                end = now + ms_to_us(spec.duration_ms + spec.delay_ms)
                self._start_animation(
                    _ActiveAnimation(
                        kind="transition",
                        msg=msg,
                        element=write.element,
                        name=write.property,
                        end_us=end,
                        complexity=write.complexity,
                        end_event=EventType.TRANSITIONEND,
                    )
                )
        for mutation in effects.class_mutations:
            if mutation.add:
                mutation.element.classes.add(mutation.class_name)
            else:
                mutation.element.classes.discard(mutation.class_name)
        if effects.needs_frame:
            self._mark_dirty(msg, effects.frame_complexity, clock_start_us)
        for raf in effects.raf_requests:
            self.tracker.retain(msg.uid)
            self._raf_queue.append((raf.callback, msg))
            self.vsync.request()
        for timeout in effects.timeouts:
            self.tracker.retain(msg.uid)
            self.kernel.schedule_in(
                ms_to_us(timeout.delay_ms),
                lambda cb=timeout.callback: self._fire_timeout(cb, msg),
                label="timeout",
            )
        for tag in effects.cleared_intervals:
            self._clear_interval(tag)
        for interval in effects.intervals:
            self._start_interval(interval, msg)
        for call in effects.animate_calls:
            self._start_animation(
                _ActiveAnimation(
                    kind="animate",
                    msg=msg,
                    element=call.element,
                    name=call.property,
                    end_us=now + ms_to_us(call.duration_ms),
                    complexity=call.frame_complexity,
                    script_cycles=call.frame_script_cycles,
                )
            )

    def _fire_timeout(self, callback: Callback, msg: InputMsg) -> None:
        self._run_callback(callback, msg, event=None, clock_start_us=self.kernel._now_us)
        self.tracker.release(msg.uid, self.kernel._now_us)

    # ------------------------------------------------------------------
    # Intervals (setInterval / clearInterval)
    # ------------------------------------------------------------------
    def _start_interval(self, interval, msg: InputMsg) -> None:
        if interval.tag in self._intervals:
            self._clear_interval(interval.tag)
        self.tracker.retain(msg.uid)
        record = {"remaining": interval.max_fires, "event": None, "msg": msg,
                  "request": interval}
        self._intervals[interval.tag] = record
        self._arm_interval(interval.tag)

    def _arm_interval(self, tag: str) -> None:
        record = self._intervals.get(tag)
        if record is None:
            return
        period_us = ms_to_us(record["request"].period_ms)
        record["event"] = self.kernel.schedule_in(
            period_us, lambda: self._fire_interval(tag), label=f"interval:{tag}"
        )

    def _fire_interval(self, tag: str) -> None:
        record = self._intervals.get(tag)
        if record is None:
            return
        msg = record["msg"]
        self._run_callback(
            record["request"].callback, msg, event=None,
            clock_start_us=self.kernel._now_us,
        )
        record["remaining"] -= 1
        if record["remaining"] <= 0:
            self._clear_interval(tag)
        else:
            self._arm_interval(tag)

    def _clear_interval(self, tag: str) -> None:
        record = self._intervals.pop(tag, None)
        if record is None:
            return
        if record["event"] is not None:
            record["event"].cancel()
        self.tracker.release(record["msg"].uid, self.kernel._now_us)

    def _start_css_animation(
        self, element: Element, value: str, msg: InputMsg, complexity: float
    ) -> None:
        from repro.web.css.tokenizer import CssTokenType, tokenize

        tokens = tuple(t for t in tokenize(value) if t.type is not CssTokenType.EOF)
        for spec in parse_animation_value(tokens):
            total_ms = spec.total_ms
            if total_ms == float("inf"):
                # Cap unbounded animations at 10 s of simulated time so
                # runs terminate; real pages cancel them via style.
                total_ms = 10_000.0
            self._start_animation(
                _ActiveAnimation(
                    kind="animation",
                    msg=msg,
                    element=element,
                    name=spec.name,
                    end_us=self.kernel._now_us + ms_to_us(total_ms),
                    complexity=complexity,
                    end_event=EventType.ANIMATIONEND,
                )
            )

    def _start_animation(self, animation: _ActiveAnimation) -> None:
        self.tracker.retain(animation.msg.uid)
        self._animations.append(animation)
        self.vsync.request()
        if self.trace is not None:
            self.trace.emit(
                self.kernel._now_us,
                "animation",
                "start",
                kind=animation.kind,
                uid=animation.msg.uid,
                target=animation.name,
                end_us=animation.end_us,
            )

    # ------------------------------------------------------------------
    # Dirty state (Fig. 8 Part II)
    # ------------------------------------------------------------------
    def _mark_dirty(
        self, msg: InputMsg, complexity: float, clock_start_us: Optional[int]
    ) -> None:
        existing = self._dirty.get(msg.uid)
        if existing is None:
            self._dirty[msg.uid] = FrameContributor(msg, clock_start_us)
            self.tracker.retain(msg.uid)  # released at frame display
        elif clock_start_us is not None and (
            existing.clock_start_us is None or clock_start_us < existing.clock_start_us
        ):
            # A concrete (earlier) latency clock beats the coalesced
            # stamp-at-VSync sentinel, and earlier beats later.
            self._dirty[msg.uid] = FrameContributor(msg, clock_start_us)
        self._dirty_complexity = max(self._dirty_complexity, complexity)
        self.vsync.request()

    # ------------------------------------------------------------------
    # VSync / frame production
    # ------------------------------------------------------------------
    def _vsync_demand(self) -> bool:
        """Whether the next VSync tick has anything to do.  While this
        is false, ticks are pure overhead and the demand-driven source
        stops delivering them (every site that creates demand also
        calls ``vsync.request()``)."""
        return bool(
            self._frame_in_flight
            or self._dirty
            or self._raf_queue
            or self._animations
        )

    def _on_vsync(self, now: int) -> None:
        if self._frame_in_flight:
            # Previous frame still in the pipeline; this refresh is
            # skipped and the dirty state rides to the next tick.
            self.stats.skipped_vsyncs += 1
            return

        self._tick_animations(now)
        raf_tasks = self._raf_queue
        self._raf_queue = []

        if not raf_tasks and not self._dirty:
            return  # idle refresh

        self._frame_in_flight = True
        self._current_frame_vsync = now

        frame_msgs = [c.msg for c in self._dirty.values()]
        frame_msgs.extend(msg for _cb, msg in raf_tasks)
        self.policy.on_frame_scheduled(now, frame_msgs)

        for callback, msg in raf_tasks:
            self._run_callback(callback, msg, event=None, clock_start_us=now)
            self.tracker.release(msg.uid, now)  # registration retain -> task retain

        # Barrier: render stages begin only after every rAF callback
        # (and its effects) has executed on the main thread.
        self.main.submit(ZERO_WORK, self._begin_render, "begin-frame")

    def _tick_animations(self, now: int) -> None:
        survivors: list[_ActiveAnimation] = []
        for animation in self._animations:
            complexity = animation.complexity
            if callable(complexity):
                complexity = float(complexity())
            self._mark_dirty(animation.msg, complexity, clock_start_us=now)
            if animation.script_cycles > 0:
                # The library's per-frame tick (jQuery animate's timer
                # function) burns main-thread CPU.
                self.tracker.retain(animation.msg.uid)
                self.main.submit(
                    WorkUnit(animation.script_cycles),
                    on_complete=lambda task, m=animation.msg: self.tracker.release(
                        m.uid, self.kernel._now_us
                    ),
                    label=f"animate-tick:{animation.name}",
                )
            if now >= animation.end_us:
                self._finish_animation(animation)
            else:
                survivors.append(animation)
        self._animations = survivors

    def _finish_animation(self, animation: _ActiveAnimation) -> None:
        if self.trace is not None:
            self.trace.emit(
                self.kernel._now_us,
                "animation",
                "end",
                kind=animation.kind,
                uid=animation.msg.uid,
                target=animation.name,
            )
        if animation.end_event is not None and animation.element is not None:
            self._dispatch_internal(animation.end_event, animation.element, animation.msg)
        self.tracker.release(animation.msg.uid, self.kernel._now_us)

    # The frame pipeline after the callbacks (Fig. 7): style, layout and
    # paint on the main thread, composite on the compositor.  At most
    # one frame is in flight, so each stage's completion callback is a
    # bound method that reads that frame's work off self.
    def _begin_render(self, _task) -> None:
        if not self._dirty:
            # rAF handlers ran but nothing was dirtied: no frame.
            self._frame_in_flight = False
            return
        vsync_us = self._current_frame_vsync
        contributors = [
            c if c.clock_start_us is not None else FrameContributor(c.msg, vsync_us)
            for c in self._dirty.values()
        ]
        complexity = self._dirty_complexity
        self._dirty = {}
        self._dirty_complexity = 0.0

        self._frame_seq += 1
        self._frame = FrameRecord(
            seq=self._frame_seq,
            vsync_us=vsync_us,
            complexity=complexity,
            contributors=contributors,
        )
        self._frame_work = self.page.render_cost.frame_work(complexity)
        self.main.submit(self._frame_work[0], self._layout, "style")

    def _layout(self, _task) -> None:
        self.main.submit(self._frame_work[1], self._paint, "layout")

    def _paint(self, _task) -> None:
        self.main.submit(self._frame_work[2], self._composite, "paint")

    def _composite(self, _task) -> None:
        # Main-thread stages done; hand off to the compositor thread.
        self.compositor.submit(self._frame_work[3], self._display_frame, "composite")

    def _display_frame(self, _task) -> None:
        frame = self._frame
        self._frame = None
        now = self.kernel._now_us
        self.tracker.frame_displayed(frame, now)
        self.stats.frames += 1
        self._frame_in_flight = False
        for observer in self._hooks["frame_displayed"]:
            observer.frame_displayed(now, frame)
        self.policy.on_frame_displayed(frame)

    def _input_completed(self, record: InputRecord) -> None:
        now = self.kernel._now_us
        for observer in self._hooks["input_completed"]:
            observer.input_completed(now, record)
        self.policy.on_input_complete(record)

    # ------------------------------------------------------------------
    # Run helpers
    # ------------------------------------------------------------------
    def run_for(self, duration_us: int) -> None:
        """Advance the simulation (keeps the energy meter integrated)."""
        self.platform.run_for(duration_us)

    def run_until_quiescent(self, max_extra_us: int = 60_000_000) -> None:
        """Run until no input has outstanding continuations (bounded by
        ``max_extra_us`` of additional simulated time)."""
        deadline = self.kernel._now_us + max_extra_us
        step = self.vsync.period_us
        while self.kernel._now_us < deadline:
            if all(r.completed for r in self.tracker.records) and not self._frame_in_flight:
                break
            self.platform.run_for(step)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Browser page={self.page.name!r} frames={self.stats.frames}>"


def target_key(target: Element) -> str:
    """Stable identity of an event target: ``#id`` when the element has
    one, else ``tag.class1.class2`` (classes sorted), else the bare tag.
    Policies key their per-(element, event) adaptive state on this, and
    post-hoc policies recompute it from the static page to line trace
    events up with runtime keys."""
    if target.id:
        return f"#{target.id}"
    if target.classes:
        return f"{target.tag}." + ".".join(sorted(target.classes))
    return target.tag


def event_key(target_key: str, event_type: "EventType | str") -> str:
    """A policy's per-(element, event) key, ``target_key@event_type``.
    Live policies build it in ``on_input`` from ``InputMsg.target_key``;
    post-hoc policies build the same key from the static page, so this
    is the one place the format is written."""
    return f"{target_key}@{event_type}"
