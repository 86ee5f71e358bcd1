"""The script (JavaScript stand-in) callback model.

Real web apps register JavaScript callbacks on DOM events; the callback
burns CPU, mutates style, registers ``requestAnimationFrame`` handlers,
sets timers, or calls library helpers like jQuery's ``animate()``.  The
reproduction models a callback as a Python function that *describes*
those actions against a recording :class:`ScriptContext`; the browser
engine then simulates their timing (CPU work becomes a task on the
renderer main thread, rAF handlers run at the next VSync, style writes
land when the callback task completes, and so on).

This two-phase design — describe first, simulate after — is what lets
the discrete-event engine charge the right amounts of work at the right
simulated moments, and it gives AutoGreen exactly the observation
points the paper describes (rAF registration, ``animate()`` calls, CSS
transition triggers; Sec. 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro.errors import BrowserError
from repro.hardware.core import ZERO_WORK, WorkUnit, trusted_work
from repro.web.dom import Document, Element

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.web.events import Event


@dataclass(frozen=True)
class StyleWrite:
    """A deferred style mutation (applied when the callback's simulated
    execution completes).

    Attributes:
        complexity: relative render cost of the resulting frame(s);
            1.0 means "typical frame for this application".
    """

    element: Element
    property: str
    value: str
    complexity: float = 1.0


@dataclass(frozen=True)
class RafRequest:
    """A ``requestAnimationFrame`` registration."""

    callback: "Callback"


@dataclass(frozen=True)
class TimeoutRequest:
    """A ``setTimeout`` registration."""

    callback: "Callback"
    delay_ms: float


@dataclass(frozen=True)
class IntervalRequest:
    """A ``setInterval`` registration.

    Attributes:
        tag: name for a later ``clearInterval``; auto-generated when
            the caller does not supply one.
        max_fires: safety bound so un-cleared intervals cannot run the
            simulation forever.
    """

    callback: "Callback"
    period_ms: float
    tag: str
    max_fires: int = 600


@dataclass(frozen=True)
class ClassMutation:
    """A deferred ``classList.add``/``classList.remove``."""

    element: Element
    class_name: str
    add: bool


@dataclass(frozen=True)
class AnimateCall:
    """A jQuery-style ``animate()`` call: the library drives a rAF loop
    internally for ``duration_ms``, producing one frame per VSync.

    Attributes:
        frame_complexity: render cost of each animation frame — either
            a scalar or a zero-argument callable drawn per frame (for
            workloads whose animation frames surge in complexity).
        frame_script_cycles: CPU cycles the library's internal tick
            burns per frame (the JS side of the animation).
    """

    element: Element
    property: str
    duration_ms: float
    frame_complexity: "float | Callable[[], float]" = 1.0
    frame_script_cycles: float = 50_000.0


@dataclass(frozen=True)
class ScriptError:
    """An exception escaping a callback (a page's "JS error")."""

    callback_name: str
    message: str
    exception_type: str


@dataclass
class ScriptEffects:
    """Everything a callback did, as recorded by :class:`ScriptContext`."""

    work: WorkUnit = ZERO_WORK
    style_writes: list[StyleWrite] = field(default_factory=list)
    raf_requests: list[RafRequest] = field(default_factory=list)
    timeouts: list[TimeoutRequest] = field(default_factory=list)
    intervals: list[IntervalRequest] = field(default_factory=list)
    cleared_intervals: list[str] = field(default_factory=list)
    class_mutations: list[ClassMutation] = field(default_factory=list)
    animate_calls: list[AnimateCall] = field(default_factory=list)
    #: Explicitly requested repaint (mark_dirty) with its complexity.
    dirty_complexity: Optional[float] = None
    #: stopPropagation(): no further listeners in the bubble path run.
    propagation_stopped: bool = False
    #: preventDefault(): suppress the browser's default action for the
    #: event (native scrolling is the default action modelled here).
    default_prevented: bool = False
    #: exception that escaped the callback, if any (the engine contains
    #: it — a page's script error never crashes the browser).
    error: Optional[ScriptError] = None

    @property
    def uses_raf(self) -> bool:
        """True if the callback registered a rAF handler (AutoGreen's
        first "continuous" signal)."""
        return bool(self.raf_requests)

    @property
    def uses_animate(self) -> bool:
        """True if the callback invoked the jQuery-like ``animate()``
        (AutoGreen's second "continuous" signal)."""
        return bool(self.animate_calls)

    @property
    def needs_frame(self) -> bool:
        """True if the callback's effects require producing a frame."""
        return (
            bool(self.style_writes)
            or bool(self.class_mutations)
            or self.dirty_complexity is not None
        )

    @property
    def frame_complexity(self) -> float:
        """Render complexity of the frame these effects dirty (max of
        contributions; 0.0 when no frame is needed)."""
        values = [w.complexity for w in self.style_writes]
        if self.dirty_complexity is not None:
            values.append(self.dirty_complexity)
        return max(values) if values else 0.0


class ScriptContext:
    """The API surface a callback function programs against."""

    def __init__(
        self,
        document: Document,
        event: Optional["Event"] = None,
        state: Optional[dict] = None,
        rng: Optional[np.random.Generator] = None,
        now_ms: float = 0.0,
    ) -> None:
        self.document = document
        self.event = event
        #: Application-persistent state dict (shared across callbacks).
        self.state = state if state is not None else {}
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.now_ms = now_ms
        self.effects = ScriptEffects()

    # ------------------------------------------------------------------
    # CPU work
    # ------------------------------------------------------------------
    def do_work(self, cycles: float, fixed_us: float = 0.0) -> None:
        """Charge CPU work to this callback's execution (reference
        big-core cycles plus frequency-independent microseconds)."""
        if cycles < 0 or fixed_us < 0:
            raise BrowserError("work amounts must be non-negative")
        work = self.effects.work
        self.effects.work = trusted_work((work.cycles + cycles, work.fixed_us + fixed_us))

    # ------------------------------------------------------------------
    # DOM / style effects
    # ------------------------------------------------------------------
    def set_style(
        self, element: Element, prop: str, value: str, complexity: float = 1.0
    ) -> None:
        """Write a style property (may trigger a CSS transition if the
        page stylesheet declares one for ``prop`` on ``element``)."""
        self.effects.style_writes.append(StyleWrite(element, prop.lower(), value, complexity))

    def mark_dirty(self, complexity: float = 1.0) -> None:
        """Request a repaint without a specific property write (canvas
        drawing, text relayout, etc.)."""
        current = self.effects.dirty_complexity or 0.0
        self.effects.dirty_complexity = max(current, complexity)

    def add_class(self, element: Element, class_name: str, complexity: float = 0.5) -> None:
        """``element.classList.add(...)`` — applied when the callback's
        execution completes; dirties a frame (class changes restyle)."""
        self.effects.class_mutations.append(ClassMutation(element, class_name, add=True))
        self.mark_dirty(complexity)

    def remove_class(
        self, element: Element, class_name: str, complexity: float = 0.5
    ) -> None:
        """``element.classList.remove(...)``."""
        self.effects.class_mutations.append(ClassMutation(element, class_name, add=False))
        self.mark_dirty(complexity)

    def stop_propagation(self) -> None:
        """``event.stopPropagation()``: listeners on ancestors do not
        run for this event."""
        self.effects.propagation_stopped = True

    def prevent_default(self) -> None:
        """``event.preventDefault()``: suppress the browser's default
        action (modelled: native compositor scrolling)."""
        self.effects.default_prevented = True

    # ------------------------------------------------------------------
    # Scheduling effects
    # ------------------------------------------------------------------
    def request_animation_frame(self, callback: "Callback | Callable") -> None:
        """Register a handler to run right before the next frame
        (the paper's rAF animation idiom, Fig. 5)."""
        self.effects.raf_requests.append(RafRequest(Callback.wrap(callback)))

    def set_timeout(self, callback: "Callback | Callable", delay_ms: float) -> None:
        """Run ``callback`` after ``delay_ms`` of simulated time."""
        if delay_ms < 0:
            raise BrowserError(f"negative timeout: {delay_ms}")
        self.effects.timeouts.append(TimeoutRequest(Callback.wrap(callback), delay_ms))

    def set_interval(
        self,
        callback: "Callback | Callable",
        period_ms: float,
        tag: str = "",
        max_fires: int = 600,
    ) -> str:
        """Run ``callback`` every ``period_ms`` until
        :meth:`clear_interval` (or ``max_fires``).  Returns the tag."""
        if period_ms <= 0:
            raise BrowserError(f"non-positive interval period: {period_ms}")
        if max_fires < 1:
            raise BrowserError(f"max_fires must be >= 1, got {max_fires}")
        if not tag:
            tag = f"interval-{len(self.effects.intervals)}-{id(callback) & 0xFFFF:x}"
        self.effects.intervals.append(
            IntervalRequest(Callback.wrap(callback), period_ms, tag, max_fires)
        )
        return tag

    def clear_interval(self, tag: str) -> None:
        """``clearInterval``: stop a previously registered interval."""
        self.effects.cleared_intervals.append(tag)

    def animate(
        self,
        element: Element,
        prop: str,
        duration_ms: float,
        frame_complexity: "float | Callable[[], float]" = 1.0,
        frame_script_cycles: float = 50_000.0,
    ) -> None:
        """jQuery-style ``$(el).animate(...)``: library-driven animation
        for ``duration_ms`` (one frame per VSync).  ``frame_complexity``
        may be a callable drawn once per frame."""
        if duration_ms <= 0:
            raise BrowserError(f"non-positive animate duration: {duration_ms}")
        self.effects.animate_calls.append(
            AnimateCall(element, prop.lower(), duration_ms, frame_complexity, frame_script_cycles)
        )


class Callback:
    """A named script callback: ``fn(ctx: ScriptContext) -> None``."""

    __slots__ = ("fn", "name")

    def __init__(self, fn: Callable[[ScriptContext], None], name: str = "") -> None:
        self.fn = fn
        self.name = name or getattr(fn, "__name__", "callback")

    @classmethod
    def wrap(cls, fn: "Callback | Callable") -> "Callback":
        """Accept either a bare function or an existing Callback."""
        return fn if isinstance(fn, Callback) else cls(fn)

    def invoke(self, ctx: ScriptContext) -> ScriptEffects:
        """Run the describing function and return the recorded effects.

        An exception escaping the function is *contained* — browsers do
        not crash on page script errors.  Effects recorded before the
        exception are kept (the partial work and DOM churn happened),
        and the error rides along in ``effects.error`` for the engine's
        console.  Simulator-infrastructure errors (BrowserError from
        misused context APIs) still propagate: those are library bugs,
        not page bugs.
        """
        try:
            self.fn(ctx)
        except BrowserError:
            raise
        except Exception as exc:  # noqa: BLE001 - the JS-error firewall
            ctx.effects.error = ScriptError(
                callback_name=self.name,
                message=str(exc),
                exception_type=type(exc).__name__,
            )
        return ctx.effects

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Callback {self.name}>"
