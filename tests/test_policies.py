"""Tests for the pluggable scheduling-policy architecture.

Covers the :mod:`repro.policies` spec grammar and registry, the
post-hoc oracle lower bound, and — most importantly — a parity guard
pinning byte-identical :class:`RunResult` output for every bare
governor name against golden data captured before the refactor.
"""

import dataclasses
import hashlib
import json
import pathlib
import pickle
from types import SimpleNamespace

import pytest

from repro.browser.engine import BrowserPolicy
from repro.core.annotations import AnnotationRegistry
from repro.errors import EvaluationError
from repro.evaluation.runner import GOVERNORS, run_result_to_dict, run_workload
from repro.hardware.platform import odroid_xu_e
from repro.hardware.dvfs import CpuConfig
from repro.policies import POLICIES, PolicySpec
from repro.policies.oracle import KeyPinnedPolicy
from repro.scenarios import SCENARIOS, build_live_scenario

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "governor_parity.json"

THERMAL = "thermal(cap_mhz=1100,trip_ms=200,hysteresis_ms=2000,hot_load=0.2)"

#: sha256 of the canonical ``run_result_to_dict`` JSON of oracle cells
#: (micro trace, seed 3), recorded before EBS and the oracle's replay
#: policy shared one keyed-governor base.
ORACLE_DIGESTS = {
    ("todo", "imperceptible"): "dd06a5a0e11f33eabfebb99791f7fe8c9a54471c9b6ae0e18e97890fe1180f75",
    ("cnet", "imperceptible"): "435377d263dd13e19be91492d0e9193fd80d31935670a837178d29925c59905b",
    ("cnet", THERMAL): "bd253976c4fb5ca1ded3d0c331d6e6a12e52946a05860940debd604d618c94ff",
}

#: Every float-typed parameter of every registered policy and scenario.
FLOAT_PARAMS = [
    pytest.param(registry, name, info.name, id=f"{name}.{info.name}")
    for registry in (POLICIES, SCENARIOS)
    for name in registry.names()
    for info in registry.get(name).params
    if info.annotation == "float"
]


# ----------------------------------------------------------------------
# Spec grammar
# ----------------------------------------------------------------------
class TestPolicySpec:
    def test_bare_name_canonical_is_itself(self):
        spec = PolicySpec.parse("greenweb")
        assert spec.name == "greenweb"
        assert spec.params == ()
        assert spec.canonical() == "greenweb"

    @pytest.mark.parametrize(
        "text",
        [
            "greenweb",
            "greenweb(ewma_alpha=0.25)",
            "greenweb(ewma_alpha=0.25,surge_aware=true)",
            "interactive(input_boost=false,timer_rate_ms=10.0)",
            "ebs(tolerance_factor=2.0)",
        ],
    )
    def test_round_trip(self, text):
        """parse -> canonical -> parse is the identity."""
        spec = PolicySpec.parse(text)
        assert PolicySpec.parse(spec.canonical()) == spec
        # canonical is a fixed point
        assert PolicySpec.parse(spec.canonical()).canonical() == spec.canonical()

    def test_canonical_sorts_and_strips_spaces(self):
        a = PolicySpec.parse("greenweb(surge_aware=true, ewma_alpha=0.25)")
        b = PolicySpec.parse("greenweb(ewma_alpha=0.25,surge_aware=true)")
        assert a == b
        assert a.canonical() == "greenweb(ewma_alpha=0.25,surge_aware=true)"

    def test_value_types(self):
        spec = PolicySpec.parse("x(a=1,b=2.5,c=true,d=false,e=little@600)")
        params = spec.params_dict
        assert params == {"a": 1, "b": 2.5, "c": True, "d": False, "e": "little@600"}

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "(x=1)",
            "greenweb(",
            "greenweb)",
            "greenweb(ewma=)",
            "greenweb(=0.25)",
            "greenweb(ewma=0.25",
            "greenweb(ewma=0.25))",
            "green web",
            "greenweb(a=1;b=2)",
        ],
    )
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(EvaluationError):
            PolicySpec.parse(bad)

    def test_duplicate_param_rejected(self):
        with pytest.raises(EvaluationError, match="duplicate"):
            PolicySpec.parse("greenweb(ewma=0.25,ewma=0.5)")


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_all_governors_registered(self):
        for name in GOVERNORS:
            assert name in POLICIES
        assert "oracle" in POLICIES

    @pytest.mark.parametrize(
        "registry, text",
        [
            (POLICIES, "greenweb"),
            (POLICIES, "greenweb(ewma=0.25)"),
            (POLICIES, "interactive(input_boost=false)"),
            (SCENARIOS, "usable"),
            (SCENARIOS, "thermal(cap_mhz=1100)"),
        ],
    )
    def test_normalize_returns_its_own_output_unchanged(self, registry, text):
        spec = registry.normalize(text)
        assert registry.normalize(spec) is spec
        # A value copy carries no mark and is validated again.
        copy = pickle.loads(pickle.dumps(spec))
        again = registry.normalize(copy)
        assert again == spec and again is not copy
        assert registry.normalize(again) is again

    def test_unvalidated_spec_objects_are_validated(self):
        with pytest.raises(EvaluationError, match=r"^unknown policy 'warp_drive'"):
            POLICIES.normalize(PolicySpec("warp_drive"))
        with pytest.raises(EvaluationError, match="valid parameters"):
            POLICIES.normalize(PolicySpec("greenweb", (("flux", 1),)))
        with pytest.raises(EvaluationError, match="unknown policy 'thermal'"):
            POLICIES.normalize(SCENARIOS.normalize("thermal"))

    def test_normalized_spec_revalidated_after_reregistration(self):
        spec = POLICIES.normalize("perf")
        entry = POLICIES.get("perf")
        POLICIES._entries["perf"] = dataclasses.replace(entry)
        try:
            again = POLICIES.normalize(spec)
            assert again == spec and again is not spec
        finally:
            POLICIES._entries["perf"] = entry

    def test_unknown_name_lists_known_policies(self):
        with pytest.raises(EvaluationError, match="known policies"):
            POLICIES.normalize("warp_drive")
        with pytest.raises(
            EvaluationError, match=r"^unknown scenario 'warp_drive'; known scenarios: \["
        ):
            SCENARIOS.normalize("warp_drive")

    def test_unknown_param_lists_valid_params(self):
        with pytest.raises(EvaluationError, match="valid parameters"):
            POLICIES.normalize("greenweb(flux_capacitor=1)")
        with pytest.raises(
            EvaluationError,
            match=r"^unknown parameter 'flux_capacitor' for scenario 'thermal'; "
            r"valid parameters: \['cap_mhz', ",
        ):
            SCENARIOS.normalize("thermal(flux_capacitor=1)")

    def test_param_free_policy_rejects_params(self):
        with pytest.raises(EvaluationError, match="accepts no parameters"):
            POLICIES.normalize("perf(speed=11)")
        with pytest.raises(
            EvaluationError, match=r"^scenario 'usable' accepts no parameters \(got 'speed'\)$"
        ):
            SCENARIOS.normalize("usable(speed=11)")

    def test_bad_param_type_rejected(self):
        with pytest.raises(EvaluationError):
            POLICIES.normalize("greenweb(recalibration_threshold=soon)")

    def test_alias_resolves_to_canonical_param(self):
        spec = POLICIES.normalize("greenweb(ewma=0.25)")
        assert spec.canonical() == "greenweb(ewma_alpha=0.25)"
        # An alias aimed at an unknown parameter is refused at
        # registration, by either registry, and registers nothing.
        for registry, kind in ((POLICIES, "policy"), (SCENARIOS, "scenario")):
            with pytest.raises(
                EvaluationError,
                match=rf"^alias 'fast' of {kind} 'aliased' targets unknown "
                r"parameter 'speed'$",
            ):
                registry.register("aliased", aliases={"fast": "speed"})(
                    lambda rate=1.0: None
                )
            assert "aliased" not in registry

    def test_normalized_params_are_coerced(self):
        spec = POLICIES.normalize("greenweb(recalibration_threshold=5)")
        assert spec.params_dict == {"recalibration_threshold": 5}

    def test_build_parameterized_policy(self):
        platform = odroid_xu_e()
        registry = AnnotationRegistry()
        policy = POLICIES.build(
            "greenweb(ewma=0.25,surge_aware=true)",
            platform,
            registry,
            build_live_scenario("imperceptible", platform),
        )
        assert policy.feedback_controller.ewma_alpha == 0.25
        assert policy.feedback_controller.surge_aware is True

    def test_build_refuses_posthoc_policy(self):
        platform = odroid_xu_e()
        registry = AnnotationRegistry()
        with pytest.raises(EvaluationError, match="post-hoc"):
            POLICIES.build(
                "oracle", platform, registry, build_live_scenario("imperceptible", platform)
            )

    @pytest.mark.parametrize("scenario", ["usable", None, 0.5])
    def test_build_rejects_a_non_scenario(self, scenario):
        """A policy reads every target through a live scenario; anything
        else must fail at build time, not on the first annotated input."""
        platform = odroid_xu_e()
        with pytest.raises(EvaluationError, match="live scenario"):
            POLICIES.build("greenweb", platform, AnnotationRegistry(), scenario)
        with pytest.raises(EvaluationError, match="live scenario"):
            POLICIES.build("perf", platform, AnnotationRegistry(), scenario)

    def test_build_rejects_unknown_spec_parameters(self):
        platform = odroid_xu_e()
        registry = AnnotationRegistry()
        with pytest.raises(EvaluationError, match="unknown parameter 'not_a_knob'"):
            POLICIES.build(
                "greenweb(not_a_knob=1)",
                platform,
                registry,
                build_live_scenario("imperceptible", platform),
            )
        with pytest.raises(EvaluationError, match="accepts no parameters"):
            POLICIES.build(
                "perf(anything=1)",
                platform,
                registry,
                build_live_scenario("imperceptible", platform),
            )

    @pytest.mark.parametrize("registry, name, param", FLOAT_PARAMS)
    def test_non_finite_floats_rejected(self, registry, name, param):
        """nan, infinities and integers beyond float range fail at
        normalisation, naming the parameter and the kind, instead of
        crashing (or silently running) a session later."""
        kind = registry.spec_class.KIND
        for value in ("nan", "inf", "-inf", "1e999", "1" + "0" * 400):
            with pytest.raises(
                EvaluationError,
                match=rf"^parameter '{param}' of {kind} '{name}' expects a finite number",
            ):
                registry.normalize(f"{name}({param}={value})")

    def test_describe_covers_every_policy(self):
        described = POLICIES.describe()
        assert set(described) == set(POLICIES.names())
        for description in described.values():
            assert description


# ----------------------------------------------------------------------
# run_workload integration
# ----------------------------------------------------------------------
class TestSpecRuns:
    def test_parameterized_run_labels_canonically(self):
        result = run_workload(
            "todo", "greenweb(ewma=0.25)", "imperceptible", "micro", 0
        )
        assert result.governor == "greenweb(ewma_alpha=0.25)"

    def test_default_params_match_bare_name(self):
        bare = run_workload("todo", "greenweb", "imperceptible", "micro", 0)
        explicit = run_workload(
            "todo",
            "greenweb(ewma_alpha=0.3,recalibration_threshold=3)",
            "imperceptible",
            "micro",
            0,
        )
        assert bare.active_energy_j == explicit.active_energy_j
        assert bare.mean_violation_pct == explicit.mean_violation_pct


    def test_policy_stats_dataclass_is_reported(self):
        """Any policy's ``stats`` dataclass reaches ``runtime_stats``,
        field for field and in declaration order."""

        @dataclasses.dataclass
        class TapStats:
            inputs: int = 0
            frames: int = 0

        class Counting(BrowserPolicy):
            def __init__(self):
                self.stats = TapStats()

            def on_input(self, msg, event):
                self.stats.inputs += 1

            def on_frame_displayed(self, frame):
                self.stats.frames += 1

        POLICIES.register("counting_toy")(lambda platform, registry, scenario: Counting())
        try:
            result = run_workload("todo", "counting_toy", "imperceptible", "micro", 0)
        finally:
            POLICIES._entries.pop("counting_toy", None)
        assert list(result.runtime_stats) == ["inputs", "frames"]
        assert result.runtime_stats["inputs"] == result.inputs
        assert result.runtime_stats["frames"] > 0
        assert run_workload("todo", "perf", "imperceptible", "micro", 0).runtime_stats is None

    def test_greenweb_stats_keys_keep_their_order(self):
        result = run_workload("todo", "greenweb", "imperceptible", "micro", 0)
        assert list(result.runtime_stats) == [
            "inputs_seen", "unannotated_inputs", "predictions", "profiling_frames",
            "violations_fed_back", "boosts_up", "boosts_down", "recalibrations",
            "idle_drops",
        ]


# ----------------------------------------------------------------------
# Oracle lower bound
# ----------------------------------------------------------------------
class TestOracle:
    def test_oracle_energy_lower_bounds_greenweb(self):
        oracle = run_workload(
            "todo", "oracle", "imperceptible", "micro", 3
        )
        greenweb = run_workload(
            "todo", "greenweb", "imperceptible", "micro", 3
        )
        # The oracle is a post-hoc minimum: no worse than any live policy.
        assert oracle.active_energy_j <= greenweb.active_energy_j + 1e-12
        # ... while still meeting every annotated QoS target.
        assert oracle.mean_violation_pct == 0.0
        assert oracle.governor == "oracle"
        assert oracle.runtime_stats["oracle_assignments"]

    @pytest.mark.parametrize("app,scenario", list(ORACLE_DIGESTS), ids=["todo", "cnet", "cnet-thermal"])
    def test_oracle_results_byte_identical(self, app, scenario):
        result = run_result_to_dict(run_workload(app, "oracle", scenario, "micro", 3))
        canonical = json.dumps(result, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(canonical.encode("utf-8")).hexdigest() == ORACLE_DIGESTS[app, scenario]

    def test_replay_policy_reapplies_each_frames_first_known_key(self):
        """One-key oracle cells never run a frame under another key's
        config, so the re-apply is pinned here with interleaved inputs."""
        a, b = CpuConfig("little", 600), CpuConfig("big", 1200)
        fastest, idle = CpuConfig("big", 1800), CpuConfig("little", 350)
        applied = []
        policy = KeyPinnedPolicy(
            SimpleNamespace(set_config=applied.append),
            {"#a@click": a, "#b@click": b}, fastest, idle,
        )
        click = SimpleNamespace(type="click")
        policy.bind(None)
        policy.on_input(SimpleNamespace(uid=1, target_key="#a"), click)
        policy.on_input(SimpleNamespace(uid=2, target_key="#b"), click)
        policy.on_input(SimpleNamespace(uid=3, target_key="#c"), click)
        policy.on_frame_scheduled(0, [SimpleNamespace(uid=9), SimpleNamespace(uid=1)])
        policy.on_frame_scheduled(0, [SimpleNamespace(uid=9)])
        for uid in (1, 2, 3):
            policy.on_input_complete(SimpleNamespace(uid=uid))
        assert applied == [idle, a, b, fastest, a, idle]

    def test_oracle_refuses_live_construction(self):
        entry = POLICIES.get("oracle")
        assert entry.posthoc is not None
        assert entry.factory is None


# ----------------------------------------------------------------------
# Parity guard: the refactor must not move a single bit
# ----------------------------------------------------------------------
class TestGovernorParity:
    """Golden-data guard captured on the pre-refactor runner.

    Every bare governor name must produce a byte-identical
    ``RunResult.to_dict()`` (app=todo, seed=3, micro trace,
    imperceptible).  Regenerate the golden file only for a deliberate,
    documented behaviour change.
    """

    @pytest.mark.parametrize("governor", GOVERNORS)
    def test_bare_names_byte_identical(self, governor):
        golden = json.loads(GOLDEN_PATH.read_text())
        result = run_workload(
            "todo", governor, "imperceptible", "micro", 3
        )
        assert json.loads(json.dumps(result.to_dict())) == golden[governor]


# ----------------------------------------------------------------------
# Sampler periods: bounded below at every boundary, before any session
# ----------------------------------------------------------------------
#: (a spec at the bound, the same spec just below it), for each sampler
SAMPLER_BOUNDS = [
    ("ondemand(timer_rate_ms=1)", "ondemand(timer_rate_ms=0.999)"),
    ("interactive(timer_rate_ms=1.0)", "interactive(timer_rate_ms=0.0001)"),
    ("bgload(period_ms=1)", "bgload(period_ms=0.0001)"),
]


def _registry_of(spec):
    return SCENARIOS if spec.startswith("bgload") else POLICIES


def _mix_item(spec):
    return f"todo:perf:{spec}" if spec.startswith("bgload") else f"todo:{spec}"


class TestSamplerPeriodBounds:
    @pytest.mark.parametrize("at_bound, below", SAMPLER_BOUNDS)
    def test_spec_grammar(self, at_bound, below):
        registry = _registry_of(below)
        assert registry.normalize(at_bound).canonical().endswith("=1.0)")
        with pytest.raises(EvaluationError, match=r"must be >= 1\.0, got"):
            registry.normalize(below)

    def test_constructors(self):
        from repro.core.governors import InteractiveGovernor, OndemandGovernor
        from repro.errors import HardwareError
        from repro.scenarios.builtin import BgLoadScenario

        platform = odroid_xu_e()
        for governor in (InteractiveGovernor, OndemandGovernor):
            governor(platform, timer_rate_ms=1.0)
            with pytest.raises(HardwareError, match="timer_rate_ms must be >= 1.0 ms"):
                governor(platform, timer_rate_ms=0.5)
        BgLoadScenario(period_ms=1.0)
        for period_ms in (0.5, 0.0, float("nan")):
            with pytest.raises(EvaluationError, match="period_ms must be >= 1.0 ms"):
                BgLoadScenario(period_ms=period_ms)

    @pytest.mark.parametrize("at_bound, below", SAMPLER_BOUNDS)
    def test_fleet_mix(self, at_bound, below):
        from repro.fleet import parse_mix

        assert len(parse_mix(_mix_item(at_bound))) == 1
        with pytest.raises(EvaluationError, match="must be >= 1.0"):
            parse_mix(_mix_item(below))

    @pytest.mark.parametrize("_at_bound, below", SAMPLER_BOUNDS)
    def test_repro_run_exits_2(self, monkeypatch, capsys, _at_bound, below):
        from repro.cli import main

        def explode(*_args, **_kwargs):
            raise AssertionError("a session ran for an out-of-range period")

        monkeypatch.setattr("repro.evaluation.runner.SessionExecution.run", explode)
        flag = "--scenario" if below.startswith("bgload") else "--governor"
        assert main(["run", "todo", flag, below]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must be >= 1.0" in err
