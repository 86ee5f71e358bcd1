"""High-level session facade: the one-stop public API.

A :class:`Session` wires together a platform, a page, a governor, and
an interaction driver, so downstream users can run GreenWeb
experiments in a few lines::

    from repro import Session

    session = Session.for_application("todo", governor="greenweb",
                                      scenario="imperceptible")
    result = session.run_full_interaction()
    print(result.energy_j, result.mean_violation_pct)

For custom pages (your own DOM, callbacks, and annotations) use
:meth:`Session.for_page`.
"""

from __future__ import annotations

from repro.browser.engine import Browser, BrowserPolicy
from repro.browser.page import Page
from repro.core.annotations import AnnotationRegistry
from repro.errors import EvaluationError
from repro.evaluation.runner import RunResult, run_workload
from repro.hardware.platform import MobilePlatform, odroid_xu_e
from repro.policies import POLICIES
from repro.scenarios import SCENARIOS, ScenarioSpec, build_live_scenario
from repro.sim.clock import SETTLE_S
from repro.sim.tracing import TraceLog
from repro.workloads.registry import APP_NAMES


class Session:
    """A configured (application, governor, scenario) experiment."""

    def __init__(
        self,
        app_name: str,
        governor: str = "greenweb",
        scenario: "ScenarioSpec | str" = "imperceptible",
        seed: int = 0,
    ) -> None:
        # Registry-backed validation: bad names and bad spec parameters
        # fail here, not mid-run; the stored governor is the canonical
        # spec string so two sessions with equal parameterizations
        # serialise identically.
        if app_name not in APP_NAMES:
            raise EvaluationError(
                f"unknown application {app_name!r}; known: {list(APP_NAMES)}"
            )
        spec = POLICIES.normalize(governor)
        self.app_name = app_name
        self.governor = spec.canonical()
        self.scenario = SCENARIOS.normalize(scenario)
        self.seed = seed

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def for_application(
        cls,
        app_name: str,
        governor: str = "greenweb",
        scenario: "ScenarioSpec | str" = "imperceptible",
        seed: int = 0,
    ) -> "Session":
        """A session over one of the paper's twelve applications
        (:data:`repro.workloads.APP_NAMES`)."""
        return cls(app_name, governor, scenario, seed)

    @classmethod
    def for_page(
        cls,
        page: Page,
        governor: str = "greenweb",
        scenario: "ScenarioSpec | str" = "imperceptible",
        seed: int = 0,
    ) -> tuple[MobilePlatform, Browser, BrowserPolicy]:
        """Assemble a live (platform, browser, policy) stack for a
        custom page; the caller drives inputs directly via
        ``browser.dispatch_event`` or an
        :class:`~repro.workloads.InteractionDriver`.  ``seed`` feeds
        the scenario's RNG lane (dynamic scenarios only).  The platform
        retains a trace (``platform.trace``) for the caller to read."""
        platform = odroid_xu_e(trace=TraceLog())
        live = build_live_scenario(scenario, platform, seed=seed)
        registry = AnnotationRegistry.from_stylesheet(page.stylesheet)
        policy = POLICIES.build(governor, platform, registry, live)
        browser = Browser(platform, page, policy=policy)
        live.attach(browser)
        return platform, browser, policy

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run_micro_interaction(self, settle_s: float = SETTLE_S) -> RunResult:
        """Run the application's micro-benchmark trace (Sec. 7.2)."""
        return run_workload(
            self.app_name,
            self.governor,
            self.scenario,
            trace_kind="micro",
            seed=self.seed,
            settle_s=settle_s,
        )

    def run_full_interaction(self, settle_s: float = SETTLE_S) -> RunResult:
        """Run the application's full interaction trace (Sec. 7.3)."""
        return run_workload(
            self.app_name,
            self.governor,
            self.scenario,
            trace_kind="full",
            seed=self.seed,
            settle_s=settle_s,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Session {self.app_name} governor={self.governor} "
            f"scenario={self.scenario}>"
        )
