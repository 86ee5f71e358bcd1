"""Run one (application, governor, scenario, trace) combination.

Each run builds a fresh platform + browser + page, replays the trace
for a fixed wall-clock window (trace duration + settle), and collects
the paper's metrics: total energy, per-event QoS violations,
configuration residency, and switching counts.

Fixed-window measurement mirrors the paper's methodology: energy is
power integrated over the real execution time of the interaction
session, so a governor that idles at high power keeps paying for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.browser.engine import Browser, BrowserPolicy, target_key
from repro.core.annotations import AnnotationRegistry
from repro.core.qos import QoSSpec
from repro.core.runtime import GreenWebRuntime
from repro.errors import EvaluationError
from repro.evaluation.folds import ConfigTimelineFold
from repro.evaluation.metrics import event_violation_pct, mean_violation_pct
from repro.hardware.dvfs import CpuConfig
from repro.hardware.platform import odroid_xu_e
from repro.policies import POLICIES, PolicySpec
from repro.scenarios import SCENARIOS, Scenario, ScenarioSpec
from repro.sim.clock import s_to_us
from repro.sim.random import RngStreams
from repro.sim.tracing import TraceLog
from repro.workloads.base import AppBundle
from repro.web.dom import Element
from repro.workloads.interactions import InteractionDriver, InteractionTrace, ScriptedEvent
from repro.workloads.registry import build_app

#: The paper's governor set (Sec. 7.1's bake-off plus the ablation
#: references) — the names whose bare-spec results are pinned by the
#: parity test.  The full policy list, including post-hoc baselines
#: and third-party registrations, is ``POLICIES.names()``.
GOVERNORS: tuple[str, ...] = (
    "perf",
    "interactive",
    "powersave",
    "ondemand",
    "greenweb",
    "ebs",
)


def resolve_spec(governor: "PolicySpec | str") -> PolicySpec:
    """Validate a governor spec (string or :class:`PolicySpec`) against
    the registry.

    Raises :class:`EvaluationError` for unknown policy names, unknown
    parameters, and type mismatches.
    """
    return POLICIES.normalize(governor)


class _ActiveWindowAccountant:
    """Integrates energy over the union of input-active windows.

    The paper's micro-benchmarks report the energy of *the interaction*
    (event dispatch until its associated frames complete), not of the
    idle gaps between repetitions.  The accountant watches the trace
    stream: an input's window opens at dispatch and closes at its
    completion record; overlapping windows merge.
    """

    def __init__(self, platform) -> None:
        self._platform = platform
        self._open_inputs: set[int] = set()
        self._window_start_j: float = 0.0
        self.active_energy_j = 0.0
        self.active_time_us = 0
        self._window_start_us = 0
        #: closed [start_us, end_us] active windows, in order
        self.windows: list[tuple[int, int]] = []
        platform.trace.subscribe(self._on_record)

    def _on_record(self, record) -> None:
        if record.category != "input":
            return
        meter = self._platform.meter
        if record.name == "complete":
            if record["uid"] in self._open_inputs:
                self._open_inputs.discard(record["uid"])
                if not self._open_inputs:
                    meter.finalize(record.time_us)
                    self.active_energy_j += meter.total_j - self._window_start_j
                    self.active_time_us += record.time_us - self._window_start_us
                    self.windows.append((self._window_start_us, record.time_us))
        else:  # a dispatch record (named by its event type)
            if not self._open_inputs:
                meter.finalize(record.time_us)
                self._window_start_j = meter.total_j
                self._window_start_us = record.time_us
            self._open_inputs.add(record["uid"])


@dataclass
class RunResult:
    """Everything measured in one run."""

    app: str
    governor: str
    #: the canonical scenario spec string (``"imperceptible"``,
    #: ``"thermal(cap_mhz=1100)"``, ...)
    scenario: str
    trace_kind: str
    duration_s: float
    energy_j: float
    #: energy integrated only while >= 1 input was in flight (the
    #: paper's per-interaction micro-benchmark accounting)
    active_energy_j: float
    active_time_s: float
    frames: int
    inputs: int
    skipped_vsyncs: int
    #: per-event violations, trace order; None = event produced no frame
    #: or was unannotated (excluded from means, as in the paper).
    event_violations_pct: list[Optional[float]]
    config_residency: dict[CpuConfig, float]
    #: residency restricted to input-active windows (Fig. 11's view)
    active_config_residency: dict[CpuConfig, float]
    freq_switches: int
    migrations: int
    annotated_events: int
    runtime_stats: Optional[dict] = None

    @property
    def mean_violation_pct(self) -> float:
        return mean_violation_pct(self.event_violations_pct)

    @property
    def switch_count(self) -> int:
        return self.freq_switches + self.migrations

    def energy_vs(self, baseline: "RunResult") -> float:
        """This run's energy as a fraction of a baseline run's."""
        if baseline.energy_j <= 0:
            raise EvaluationError("baseline consumed no energy")
        return self.energy_j / baseline.energy_j

    def active_energy_vs(self, baseline: "RunResult") -> float:
        """Active-window energy relative to a baseline run's."""
        if baseline.active_energy_j <= 0:
            raise EvaluationError("baseline has no active-window energy")
        return self.active_energy_j / baseline.active_energy_j

    def to_dict(self) -> dict:
        """Plain picklable/JSON-able form; see :func:`run_result_to_dict`."""
        return run_result_to_dict(self)


def make_policy(
    governor: "PolicySpec | str",
    platform,
    registry: AnnotationRegistry,
    scenario: Scenario,
) -> BrowserPolicy:
    """Instantiate a governor policy from a spec (string or parsed).

    ``scenario`` is the live bound
    :class:`~repro.scenarios.base.Scenario` the policy reads its
    targets through (:func:`repro.scenarios.build_live_scenario` builds
    one for hand-assembled stacks)."""
    spec = resolve_spec(governor)
    return POLICIES.build(spec, platform, registry, scenario)


def _resolve_trace(bundle, trace_kind: str):
    if trace_kind == "micro":
        return bundle.micro_trace
    if trace_kind == "full":
        return bundle.full_trace
    raise EvaluationError(f"unknown trace kind {trace_kind!r}")


def _resolve_targets(
    bundle: AppBundle, trace: InteractionTrace
) -> list[tuple[ScriptedEvent, Element]]:
    """Each scripted event of ``trace``, in trace order, paired with its
    target element (the document root when it names none); a missing
    element is an :class:`EvaluationError`."""
    document = bundle.page.document
    pairs = []
    for scripted in trace.sorted_events():
        target = (
            document.get_element_by_id(scripted.target_id)
            if scripted.target_id
            else document.root
        )
        if target is None:
            raise EvaluationError(
                f"trace {trace.name!r} targets missing element #{scripted.target_id}"
            )
        pairs.append((scripted, target))
    return pairs


def trace_event_keys(app: str, seed: int, trace_kind: str) -> list[str]:
    """The policy event key of every trace event, in trace order.

    Matches the ``target_key@event_type`` keys live policies compute in
    ``on_input``, letting post-hoc policies (the oracle) line up
    per-event violations with per-key decisions without running the
    browser.
    """
    bundle = build_app(app, seed)
    trace = _resolve_trace(bundle, trace_kind)
    return [
        f"{target_key(target)}@{scripted.event_type}"
        for scripted, target in _resolve_targets(bundle, trace)
    ]


def run_workload(
    app: str,
    governor: "PolicySpec | str",
    scenario: "ScenarioSpec | str" = "imperceptible",
    trace_kind: str = "full",
    seed: int = 0,
    settle_s: float = 4.0,
    trace_level: str = "full",
) -> RunResult:
    """Run one experiment cell and return its measurements.

    Args:
        app: application name (see :data:`repro.workloads.APP_NAMES`).
        governor: a policy spec — a bare registered name (see
            ``POLICIES.names()``), a parameterized string like
            ``"greenweb(ewma_alpha=0.25)"``, or a :class:`PolicySpec`.
        scenario: the usage scenario — a registered name or
            parameterized spec like ``"thermal(cap_mhz=1100)"`` (see
            ``SCENARIOS.names()``) or a :class:`ScenarioSpec`.  The
            static pair is GreenWeb's QoS target choice (Perf and
            Interactive "behave the same independently of the usage
            scenario", Sec. 7.1 — only their violation accounting
            changes); dynamic scenarios additionally act on the
            simulation (thermal caps, injected work).
        trace_kind: ``"micro"`` or ``"full"``.
        seed: workload seed.
        settle_s: wall-clock tail after the last input.
        trace_level: :data:`repro.sim.tracing.TRACE_LEVELS` member.
            Every metric in the returned :class:`RunResult` is fed by
            streaming folds over the ``input``/``config`` categories
            (or by non-trace counters), so ``"full"`` and ``"gated"``
            produce identical results — ``"gated"`` just never retains
            the records.  ``"off"`` disables tracing entirely and
            zeroes the trace-derived fields (active energy, residency).
    """
    spec = resolve_spec(governor)
    scenario_spec = SCENARIOS.normalize(scenario)
    entry = POLICIES.get(spec.name)
    if entry.posthoc is not None:
        return entry.posthoc(
            spec,
            app=app,
            scenario=scenario_spec,
            trace_kind=trace_kind,
            seed=seed,
            settle_s=settle_s,
            trace_level=trace_level,
        )
    return execute_run(
        app,
        spec.label(),
        scenario_spec,
        trace_kind,
        seed,
        settle_s,
        trace_level,
        lambda platform, registry, live_scenario: POLICIES.build(
            spec, platform, registry, live_scenario
        ),
    )


class SessionExecution:
    """One prepared measurement world: the single session builder.

    ``__init__`` takes a built :class:`~repro.workloads.base.AppBundle`
    (so callers may re-annotate its stylesheet first), builds the
    platform, live scenario, policy, browser and folds, and schedules
    the trace; :meth:`run` advances the session's own kernel through
    the fixed measurement window; :meth:`finish` collects the
    :class:`RunResult`.  :func:`execute_run` is the usual caller and
    runs the three steps back to back.
    """

    def __init__(
        self,
        bundle: AppBundle,
        governor_label: str,
        scenario: "ScenarioSpec | str",
        trace_kind: str,
        seed: int,
        settle_s: float,
        trace_level: str,
        policy_factory,
    ) -> None:
        self.app = bundle.spec.name
        self.governor_label = governor_label
        self.scenario_spec = SCENARIOS.normalize(scenario)
        self.trace_kind = trace_kind

        trace = _resolve_trace(bundle, trace_kind)

        self.platform = odroid_xu_e(
            record_power_intervals=False, trace=TraceLog.for_level(trace_level)
        )
        # Each session gets a FRESH live scenario (instances carry run
        # state) bound to its platform and a forked RNG lane, so
        # scenario randomness never perturbs workload streams.  Bound
        # before the policy so the policy can read its targets from it.
        self.scenario: Scenario = SCENARIOS.build(self.scenario_spec).bind(
            self.platform, RngStreams(seed).fork("scenario")
        )
        registry = AnnotationRegistry.from_stylesheet(bundle.page.stylesheet)
        self.policy = policy_factory(self.platform, registry, self.scenario)
        self.browser = Browser(self.platform, bundle.page, policy=self.policy)
        self.scenario.attach(self.browser)
        self._config_fold = ConfigTimelineFold().attach(self.platform.trace)
        self._accountant = _ActiveWindowAccountant(self.platform)
        driver = InteractionDriver(self.browser)

        # Pre-resolve each trace event's QoS spec (annotation state is
        # static); used for violation accounting under EVERY governor so
        # comparisons judge identical targets.
        self._specs: list[Optional[QoSSpec]] = [
            registry.lookup(target, scripted.event_type)
            for scripted, target in _resolve_targets(bundle, trace)
        ]

        driver.schedule(trace)
        #: the fixed measurement window (trace duration + settle tail)
        self.window_us = trace.duration_us + s_to_us(settle_s)

    def run(self) -> None:
        """Advance this session's kernel through the measurement window
        (``Kernel.run_until`` to ``window_us``)."""
        self.platform.run_for(self.window_us)

    def finish(self) -> RunResult:
        """Collect metrics after :meth:`run`; the kernel clock must
        already be at the window's deadline."""
        platform = self.platform
        browser = self.browser
        platform.meter.finalize(platform.kernel.now_us)

        records = browser.tracker.records
        if len(records) != len(self._specs):
            raise EvaluationError(
                f"dispatched {len(records)} inputs but trace has {len(self._specs)}"
            )
        violations: list[Optional[float]] = []
        for record, spec in zip(records, self._specs):
            if spec is None:
                violations.append(None)
            else:
                violations.append(event_violation_pct(record, spec, self.scenario))

        # Residency comes from the streaming fold rather than a post-hoc
        # trace scan, so a non-retaining ("gated") log yields the same
        # numbers as "full" — see repro.evaluation.folds.
        residency = self._config_fold.residency(
            0, platform.kernel.now_us, initial=CpuConfig("big", 1800)
        )
        active_residency = self._config_fold.windowed(
            self._accountant.windows, initial=CpuConfig("big", 1800)
        )
        runtime_stats = None
        if isinstance(self.policy, GreenWebRuntime):
            stats = self.policy.stats
            runtime_stats = {
                "inputs_seen": stats.inputs_seen,
                "unannotated_inputs": stats.unannotated_inputs,
                "predictions": stats.predictions,
                "profiling_frames": stats.profiling_frames,
                "violations_fed_back": stats.violations_fed_back,
                "boosts_up": stats.boosts_up,
                "boosts_down": stats.boosts_down,
                "recalibrations": stats.recalibrations,
                "idle_drops": stats.idle_drops,
            }

        return RunResult(
            app=self.app,
            governor=self.governor_label,
            scenario=self.scenario_spec.canonical(),
            trace_kind=self.trace_kind,
            duration_s=platform.kernel.now_us / 1e6,
            energy_j=platform.meter.total_j,
            active_energy_j=self._accountant.active_energy_j,
            active_time_s=self._accountant.active_time_us / 1e6,
            frames=browser.stats.frames,
            inputs=browser.stats.inputs,
            skipped_vsyncs=browser.stats.skipped_vsyncs,
            event_violations_pct=violations,
            config_residency=residency,
            active_config_residency=active_residency,
            freq_switches=platform.dvfs.freq_switches,
            migrations=platform.dvfs.migrations,
            annotated_events=sum(1 for s in self._specs if s is not None),
            runtime_stats=runtime_stats,
        )


def execute_run(
    app: str,
    governor_label: str,
    scenario: "ScenarioSpec | str",
    trace_kind: str,
    seed: int,
    settle_s: float,
    trace_level: str,
    policy_factory,
) -> RunResult:
    """The measurement core shared by live-policy runs and post-hoc
    replays: build the world (including a fresh bound scenario), let
    ``policy_factory(platform, registry, scenario)`` supply the policy,
    replay the trace for the fixed window, collect metrics.
    :func:`run_workload` is the spec-aware front door; the oracle calls
    this directly with its pinned-replay policies — each replay gets
    its own scenario instance, so thermal state never leaks between
    replays.
    """
    execution = SessionExecution(
        build_app(app, seed), governor_label, scenario, trace_kind, seed, settle_s,
        trace_level, policy_factory,
    )
    execution.run()
    return execution.finish()


def run_result_to_dict(result: RunResult) -> dict:
    """Flatten a :class:`RunResult` into plain picklable/JSON-able data.

    ``CpuConfig`` residency keys become their ``"cluster@MHz"`` strings
    (the scenario is already a canonical spec string), so the dict
    survives any serialisation boundary (process pools, JSON files,
    future RPC).
    """
    return {
        "app": result.app,
        "governor": result.governor,
        "scenario": str(result.scenario),
        "trace_kind": result.trace_kind,
        "duration_s": result.duration_s,
        "energy_j": result.energy_j,
        "active_energy_j": result.active_energy_j,
        "active_time_s": result.active_time_s,
        "frames": result.frames,
        "inputs": result.inputs,
        "skipped_vsyncs": result.skipped_vsyncs,
        "event_violations_pct": list(result.event_violations_pct),
        "mean_violation_pct": result.mean_violation_pct,
        "config_residency": {
            str(config): fraction for config, fraction in result.config_residency.items()
        },
        "active_config_residency": {
            str(config): fraction
            for config, fraction in result.active_config_residency.items()
        },
        "freq_switches": result.freq_switches,
        "migrations": result.migrations,
        "annotated_events": result.annotated_events,
        "runtime_stats": result.runtime_stats,
    }


def run_workload_job(spec: dict) -> dict:
    """Worker-safe :func:`run_workload`: plain dict in, plain dict out.

    This is the module-level entry point process pools (and future RPC
    backends) call: it is importable without side effects, and both the
    argument and the return value are built from picklable primitives
    only.  Recognised keys (all but ``app`` optional): ``app``,
    ``governor``, ``scenario``, ``trace_kind``, ``seed``, ``settle_s``,
    ``trace_level``.
    """
    result = run_workload(
        spec["app"],
        spec.get("governor", "greenweb"),
        spec.get("scenario", "imperceptible"),
        trace_kind=spec.get("trace_kind", "full"),
        seed=int(spec.get("seed", 0)),
        settle_s=float(spec.get("settle_s", 4.0)),
        trace_level=spec.get("trace_level", "full"),
    )
    return run_result_to_dict(result)
