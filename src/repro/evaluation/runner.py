"""Run one (application, governor, scenario, trace) combination.

Each run builds a fresh platform + browser + page, replays the trace
for a fixed wall-clock window (trace duration + settle), and collects
the paper's metrics: total energy, per-event QoS violations,
configuration residency, and switching counts.

Fixed-window measurement mirrors the paper's methodology: energy is
power integrated over the real execution time of the interaction
session, so a governor that idles at high power keeps paying for it.

Every metric comes from session observers (the residency fold and the
active-window accountant, joined through ``MobilePlatform.attach``, see
:mod:`repro.sim.tracing`) or from counters, so a session needs no trace
to produce its result: only :class:`SessionExecution` callers that read
``platform.trace`` afterwards (trace export, analysis) attach one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable, Optional

from repro.browser.engine import Browser, event_key, target_key
from repro.browser.frame_tracker import InputRecord
from repro.browser.messages import InputMsg
from repro.core.annotations import AnnotationRegistry
from repro.core.qos import QoSSpec
from repro.errors import EvaluationError
from repro.evaluation.folds import ConfigTimelineFold
from repro.evaluation.metrics import event_violation_pct, mean_violation_pct
from repro.hardware.dvfs import CpuConfig
from repro.hardware.platform import odroid_xu_e
from repro.policies import POLICIES, PolicySpec
from repro.scenarios import SCENARIOS, Scenario, ScenarioSpec, build_live_scenario
from repro.sim.clock import SETTLE_S, s_to_us
from repro.sim.tracing import SessionObserver, TraceLog
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


class _ActiveWindowAccountant(SessionObserver):
    """Integrates energy over the union of input-active windows.

    The paper's micro-benchmarks report the energy of *the interaction*
    (event dispatch until its associated frames complete), not of the
    idle gaps between repetitions.  An input's window opens at its
    dispatch and closes at its completion; overlapping windows merge.
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

    def input_dispatched(self, time_us: int, msg: InputMsg) -> None:
        if not self._open_inputs:
            meter = self._platform.meter
            meter.finalize(time_us)
            self._window_start_j = meter.total_j
            self._window_start_us = time_us
        self._open_inputs.add(msg.uid)

    def input_completed(self, time_us: int, record: InputRecord) -> None:
        if record.uid in self._open_inputs:
            self._open_inputs.discard(record.uid)
            if not self._open_inputs:
                meter = self._platform.meter
                meter.finalize(time_us)
                self.active_energy_j += meter.total_j - self._window_start_j
                self.active_time_us += time_us - self._window_start_us
                self.windows.append((self._window_start_us, time_us))


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
    #: the policy's ``stats`` dataclass as a dict (None if it keeps none)
    runtime_stats: Optional[dict] = None

    @property
    def mean_violation_pct(self) -> float:
        return mean_violation_pct(self.event_violations_pct)

    def active_energy_vs(self, baseline: "RunResult") -> float:
        """Active-window energy relative to a baseline run's."""
        if baseline.active_energy_j <= 0:
            raise EvaluationError("baseline has no active-window energy")
        return self.active_energy_j / baseline.active_energy_j

    def to_dict(self) -> dict:
        """Plain picklable/JSON-able form; see :func:`run_result_to_dict`."""
        return run_result_to_dict(self)


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

    Matches the :func:`~repro.browser.engine.event_key` keys live
    policies compute in ``on_input``, letting post-hoc policies (the oracle) line up
    per-event violations with per-key decisions without running the
    browser.
    """
    bundle = build_app(app, seed)
    trace = _resolve_trace(bundle, trace_kind)
    return [
        event_key(target_key(target), scripted.event_type)
        for scripted, target in _resolve_targets(bundle, trace)
    ]


def run_workload(
    app: str,
    governor: "PolicySpec | str",
    scenario: "ScenarioSpec | str" = "imperceptible",
    trace_kind: str = "full",
    seed: int = 0,
    settle_s: float = SETTLE_S,
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

    A live policy runs as one :class:`SessionExecution` without a
    trace: nobody could read one, and every metric in the returned
    :class:`RunResult` comes from session observers or counters.
    Callers that want the trace build a :class:`SessionExecution` with
    ``trace=True``.  A post-hoc policy (the oracle) gets the same run
    context and returns its own finished result.
    """
    spec = POLICIES.normalize(governor)
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
        )
    execution = SessionExecution(
        build_app(app, seed), spec, scenario_spec,
        trace_kind=trace_kind, seed=seed, settle_s=settle_s,
    )
    execution.run()
    return execution.finish()


class SessionExecution:
    """One prepared measurement world: the single session builder.

    ``__init__`` takes a built :class:`~repro.workloads.base.AppBundle`
    (so callers may re-annotate its stylesheet first), builds the
    platform, live scenario, policy, browser and folds, and schedules
    the trace; :meth:`run` advances the session's own kernel through
    the fixed measurement window; :meth:`finish` collects the
    :class:`RunResult`.  :func:`run_workload` is the usual caller and
    runs the three steps back to back.

    ``policy`` is a policy spec (a :class:`PolicySpec` or spec string),
    built through ``POLICIES.build`` against the session's platform,
    annotation registry and live scenario; the result's ``governor`` is
    the spec's label.  A post-hoc spec (the oracle) is refused there: it
    replays whole runs through :func:`run_workload`.  ``policy`` may
    instead be a ``(platform, registry, scenario)`` factory for a policy
    no spec names (the pinned replays of the oracle and the trade-off
    space); a factory needs an explicit ``label``.

    ``trace`` attaches a retaining :class:`~repro.sim.tracing.TraceLog`
    as ``platform.trace``, for callers that read it afterwards; without
    one ``platform.trace`` is None.  Results are identical either way.
    Further observers (folds) join through ``platform.attach`` before
    :meth:`run`; the runner's own fold and accountant attach after the
    trace.
    ``fast_voltage_regulators`` selects the platform's IVR variant
    (5 us frequency switches instead of 100 us; see
    :func:`~repro.hardware.platform.odroid_xu_e`).
    """

    def __init__(
        self,
        bundle: AppBundle,
        policy: "PolicySpec | str | Callable",
        scenario: "ScenarioSpec | str" = "imperceptible",
        *,
        trace_kind: str = "full",
        seed: int = 0,
        settle_s: float = SETTLE_S,
        trace: bool = False,
        fast_voltage_regulators: bool = False,
        label: Optional[str] = None,
    ) -> None:
        if not callable(policy):
            spec = POLICIES.normalize(policy)
            policy = partial(POLICIES.build, spec)
            label = spec.label() if label is None else label
        elif label is None:
            raise EvaluationError(
                "a policy factory needs an explicit label; a policy spec "
                "is labelled by its spec"
            )
        self.app = bundle.spec.name
        self.label = label
        self.scenario_spec = SCENARIOS.normalize(scenario)
        self.trace_kind = trace_kind

        interactions = _resolve_trace(bundle, trace_kind)

        self.platform = odroid_xu_e(
            trace=TraceLog() if trace else None,
            fast_voltage_regulators=fast_voltage_regulators,
        )
        #: the configuration in force before the first applied switch
        self._initial_config = self.platform.config
        # Each session gets a FRESH live scenario (instances carry run
        # state), bound before the policy so the policy can read its
        # targets from it.
        self.scenario: Scenario = build_live_scenario(
            self.scenario_spec, self.platform, seed=seed
        )
        registry = AnnotationRegistry.from_stylesheet(bundle.page.stylesheet)
        self.policy = policy(self.platform, registry, self.scenario)
        self.browser = Browser(self.platform, bundle.page, policy=self.policy)
        self.scenario.attach(self.browser)
        self._config_fold = ConfigTimelineFold()
        self._accountant = _ActiveWindowAccountant(self.platform)
        self.platform.attach(self._config_fold)
        self.platform.attach(self._accountant)
        driver = InteractionDriver(self.browser)

        # Pre-resolve each trace event's QoS spec (annotation state is
        # static); used for violation accounting under EVERY governor so
        # comparisons judge identical targets.
        self._specs: list[Optional[QoSSpec]] = [
            registry.lookup(target, scripted.event_type)
            for scripted, target in _resolve_targets(bundle, interactions)
        ]

        driver.schedule(interactions)
        #: the fixed measurement window (trace duration + settle tail)
        self.window_us = interactions.duration_us + s_to_us(settle_s)

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

        residency = self._config_fold.residency(
            0, platform.kernel.now_us, initial=self._initial_config
        )
        active_residency = self._config_fold.windowed(
            self._accountant.windows, initial=self._initial_config
        )
        stats = self.policy.stats

        return RunResult(
            app=self.app,
            governor=self.label,
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
            runtime_stats=None if stats is None else asdict(stats),
        )


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


def _parse_config(key: str) -> CpuConfig:
    cluster, _, freq = key.partition("@")
    return CpuConfig(cluster, int(freq.removesuffix("MHz")))


def run_result_from_dict(data: dict) -> RunResult:
    """The inverse of :func:`run_result_to_dict`: rebuild the
    :class:`RunResult`, parsing the ``"cluster@MHz"`` residency keys back
    into :class:`~repro.hardware.dvfs.CpuConfig`.  The derived
    ``mean_violation_pct`` is recomputed, not read."""
    fields = dict(data)
    fields.pop("mean_violation_pct")
    for key in ("config_residency", "active_config_residency"):
        fields[key] = {_parse_config(config): share for config, share in data[key].items()}
    return RunResult(**fields)


def run_workload_job(spec: dict) -> dict:
    """Worker-safe :func:`run_workload`: plain dict in, plain dict out.

    This is the module-level entry point process pools (and future RPC
    backends) call: it is importable without side effects, and both the
    argument and the return value are built from picklable primitives
    only.  Recognised keys (all but ``app`` optional): ``app``,
    ``governor``, ``scenario``, ``trace_kind``, ``seed``, ``settle_s``;
    other keys are ignored.
    """
    result = run_workload(
        spec["app"],
        spec.get("governor", "greenweb"),
        spec.get("scenario", "imperceptible"),
        trace_kind=spec.get("trace_kind", "full"),
        seed=int(spec.get("seed", 0)),
        settle_s=float(spec.get("settle_s", SETTLE_S)),
    )
    return run_result_to_dict(result)
