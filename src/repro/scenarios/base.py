"""Scenario objects: the environment as a simulation actor.

The paper evaluates under two *static* usage scenarios — battery
plentiful (target TI) or tight (target TU), Sec. 7.1 — registered here
as the ``imperceptible`` and ``usable`` builtins.  A :class:`Scenario`
is an object that lives inside the session's simulation: it binds to
the platform, may schedule kernel events and submit background work,
and exposes the environment at each instant:

* ``relax_at`` — where between TI (0.0) and TU (1.0) the QoS target
  sits, read by everyone through ``operative_target_ms``;
* ``caps_at`` — per-cluster frequency ceilings currently imposed
  (thermal throttling), enforced by the DVFS controller;
* ``extra_work_done_us`` — cumulative environment-injected work
  (network bursts, background load).

Determinism contract
--------------------
Everything a scenario does is a function of **virtual time** and its
forked RNG lane (``RngStreams(seed).fork("scenario")``): no wall-clock,
no global state, so a dynamic scenario's session is byte-identical
across runs, processes, and sessions with or without a trace — the
differential suite pins this against checked-in goldens.
Per-event QoS violations sample the operative target at the event's
*dispatch* time (see :func:`repro.evaluation.metrics.event_violation_pct`),
so accounting is insensitive to how long the frame itself took.

Scenario instances are mutable (a thermal model carries heat state) and
therefore **single-use**: everything that re-runs sessions — including
the oracle's many replays — plumbs the :class:`ScenarioSpec` and builds
a fresh instance per session via ``SCENARIOS.build(spec)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping, Optional

from repro.core.qos import QoSTarget
from repro.errors import EvaluationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.browser.engine import Browser
    from repro.hardware.platform import MobilePlatform
    from repro.scenarios.spec import ScenarioSpec
    from repro.sim.random import RngStreams


def interpolate_target_ms(target: QoSTarget, relax: float) -> float:
    """The operative target for a relaxation factor in [0, 1].

    ``relax <= 0`` returns TI and ``relax >= 1`` returns TU *exactly*
    (no arithmetic): the static ``imperceptible``/``usable`` scenarios
    must hand out the annotated values unchanged, and
    ``TI + 1.0 * (TU - TI)`` is not always ``TU`` in floats.
    """
    if relax <= 0.0:
        return target.imperceptible_ms
    if relax >= 1.0:
        return target.usable_ms
    return target.imperceptible_ms + relax * (
        target.usable_ms - target.imperceptible_ms
    )


class Scenario:
    """Base class for usage scenarios (see the module docstring).

    Subclasses override the three state hooks (:meth:`relax_at`,
    :meth:`caps_at`, :meth:`extra_work_done_us`) and, when they act on
    the simulation, :meth:`on_bind` (schedule kernel events, create
    contexts, install caps) and :meth:`attach` (grab browser handles).
    """

    #: the canonical spec this instance was built from; set by
    #: :meth:`repro.scenarios.registry.ScenarioRegistry.build`.
    spec: "ScenarioSpec"

    def __init__(self) -> None:
        self.platform: Optional["MobilePlatform"] = None
        self._rng: "RngStreams | Callable[[], RngStreams] | None" = None

    @property
    def rng(self) -> Optional["RngStreams"]:
        """The session's ``"scenario"`` RNG lane (None while unbound).

        A lane bound lazily is derived on first access, so a scenario
        that never draws (the static pair) never pays for the
        derivation; the derivation is pure, so the numbers drawn do not
        depend on when it happens.
        """
        if callable(self._rng):
            self._rng = self._rng()
        return self._rng

    @property
    def name(self) -> str:
        return self.spec.name

    def canonical(self) -> str:
        """The canonical spec string (round-trips through the grammar)."""
        return self.spec.canonical()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(
        self, platform: "MobilePlatform", rng: "RngStreams | Callable[[], RngStreams]"
    ) -> "Scenario":
        """Attach this scenario to a session's platform (single use).

        ``rng`` is the session's forked ``"scenario"`` RNG lane, so
        scenario randomness never perturbs workload streams (and vice
        versa), or a zero-argument callable that derives it on first
        use of :attr:`rng`.  Returns ``self`` for chaining.
        """
        if self.platform is not None:
            raise EvaluationError(
                f"scenario {self.canonical()!r} is already bound; scenario "
                "instances carry run state — build a fresh one per session"
            )
        self.platform = platform
        self._rng = rng
        self.on_bind()
        return self

    def on_bind(self) -> None:
        """Hook: schedule actor events / create contexts.  Default no-op."""

    def attach(self, browser: "Browser") -> None:
        """Hook: called once the session's browser exists (after
        :meth:`bind`), for scenarios that inject work into browser
        threads.  Default no-op."""

    # ------------------------------------------------------------------
    # Environment state
    # ------------------------------------------------------------------
    def relax_at(self, now_us: int) -> float:
        """Target relaxation in [0, 1] at virtual time ``now_us``."""
        return 0.0

    def caps_at(self, now_us: int) -> Optional[Mapping[str, int]]:
        """Frequency ceilings in force at ``now_us`` (None = uncapped)."""
        return None

    def extra_work_done_us(self) -> float:
        """Cumulative nominal injected work so far."""
        return 0.0

    def operative_target_ms(
        self, target: QoSTarget, at_us: Optional[int] = None
    ) -> float:
        """The operative frame-latency target (ms) at ``at_us`` (default:
        now, or 0 while unbound).  The runtime reads every target
        through this; violation accounting passes the event's dispatch
        time."""
        if at_us is None:
            at_us = self.platform.kernel._now_us if self.platform is not None else 0
        return interpolate_target_ms(target, self.relax_at(at_us))

    def __str__(self) -> str:
        spec = getattr(self, "spec", None)
        return spec.label() if spec is not None else type(self).__name__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bound = "bound" if self.platform is not None else "unbound"
        return f"<Scenario {self} {bound}>"
