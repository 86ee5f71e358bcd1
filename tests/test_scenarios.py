"""Unit tests for the scenario engine: grammar, registry, builtins.

The differential suite (``tests/differential/test_scenario_dynamics.py``)
pins byte-parity; these tests pin the *semantics* — the spec grammar and
its reserved delimiters, registry validation, and each builtin
scenario's observable behavior at the platform level.
"""

import json

import pytest

from repro.core.qos import QoSTarget
from repro.errors import EvaluationError
from repro.evaluation.runner import run_workload_job
from repro.fleet import FleetSpec, parse_mix
from repro.fleet.aggregate import cell_key, split_cell_key
from repro.hardware.dvfs import CpuConfig
from repro.hardware.platform import odroid_xu_e
from repro.policies import POLICIES
from repro.policies.spec import PolicySpec
from repro.scenarios import (
    SCENARIOS,
    Scenario,
    ScenarioSpec,
    build_live_scenario,
    interpolate_target_ms,
)
from repro.sim.random import RngStreams


def live(spec: str, platform=None, seed: int = 0):
    platform = platform or odroid_xu_e()
    return platform, build_live_scenario(spec, platform, seed=seed)


# ----------------------------------------------------------------------
# Spec grammar and canonicalisation
# ----------------------------------------------------------------------
class TestSpecGrammar:
    def test_bare_name_canonicalizes_to_itself(self):
        for name in ("imperceptible", "usable"):
            assert SCENARIOS.normalize(name).canonical() == name

    def test_round_trip_identity(self):
        spec = SCENARIOS.normalize("thermal(trip_ms=2e3, cap_mhz=900)")
        canonical = spec.canonical()
        assert canonical == "thermal(cap_mhz=900,trip_ms=2000.0)"
        assert SCENARIOS.normalize(canonical) == spec

    def test_unknown_scenario_lists_vocabulary(self):
        with pytest.raises(EvaluationError, match="known scenarios"):
            SCENARIOS.normalize("ludicrous")
        with pytest.raises(
            EvaluationError, match=r"^unknown policy 'ludicrous'; known policies: \["
        ):
            POLICIES.normalize("ludicrous")

    def test_unknown_parameter_lists_valid_ones(self):
        with pytest.raises(EvaluationError, match="valid parameters"):
            SCENARIOS.normalize("thermal(cap_ghz=1)")
        with pytest.raises(
            EvaluationError,
            match=r"^unknown parameter 'cap_ghz' for policy 'ondemand'; "
            r"valid parameters: \['timer_rate_ms', 'up_threshold', 'down_threshold'\]$",
        ):
            POLICIES.normalize("ondemand(cap_ghz=1)")

    def test_static_scenarios_accept_no_parameters(self):
        with pytest.raises(EvaluationError, match="accepts no parameters"):
            SCENARIOS.normalize("usable(relax=0.5)")
        with pytest.raises(
            EvaluationError, match=r"^policy 'perf' accepts no parameters \(got 'relax'\)$"
        ):
            POLICIES.normalize("perf(relax=0.5)")

    def test_typed_coercion(self):
        spec = SCENARIOS.normalize("thermal(cap_mhz=900,hot_load=0.3)")
        params = spec.params_dict
        assert params["cap_mhz"] == 900 and isinstance(params["cap_mhz"], int)
        assert params["hot_load"] == 0.3
        with pytest.raises(EvaluationError, match="expects an integer"):
            SCENARIOS.normalize("thermal(cap_mhz=900.5)")

    def test_interpolation_endpoints_are_exact(self):
        target = QoSTarget(imperceptible_ms=50.0, usable_ms=100.0 / 3.0 * 9.0)
        assert interpolate_target_ms(target, 0.0) is target.imperceptible_ms
        assert interpolate_target_ms(target, 1.0) is target.usable_ms
        mid = interpolate_target_ms(target, 0.5)
        assert target.imperceptible_ms < mid < target.usable_ms


# ----------------------------------------------------------------------
# Reserved fleet delimiters: | and : can never reach a cell key
# ----------------------------------------------------------------------
class TestReservedDelimiters:
    @pytest.mark.parametrize("hostile", ["a|b", "a:b", "|", ":", "x|y:z"])
    @pytest.mark.parametrize("cls", [PolicySpec, ScenarioSpec])
    def test_programmatic_construction_rejects(self, cls, hostile):
        with pytest.raises(EvaluationError, match="reserved fleet delimiters"):
            cls("custom", (("tag", hostile),))

    @pytest.mark.parametrize("hostile", ["thermal(tag=a|b)", "thermal(tag=a:b)"])
    def test_grammar_rejects_at_parse_time(self, hostile):
        # The parser alphabet excludes the delimiters outright.
        with pytest.raises(EvaluationError):
            ScenarioSpec.parse(hostile)

    def test_cell_key_guards_every_field(self):
        assert split_cell_key(cell_key("todo", "usable", "perf")) == (
            "todo", "usable", "perf"
        )
        for args in (
            ("to|do", "usable", "perf"),
            ("todo", "us|able", "perf"),
            ("todo", "usable", "pe|rf"),
        ):
            with pytest.raises(EvaluationError, match="reserved cell-key"):
                cell_key(*args)

    def test_mix_grammar_cannot_smuggle_delimiters(self):
        # ":" inside parens is not a mix separator, but the spec
        # grammar rejects it before any cell key could be built.
        with pytest.raises(EvaluationError):
            parse_mix("todo:greenweb:thermal(tag=a:b):micro")
        with pytest.raises(EvaluationError):
            parse_mix("todo:greenweb(tag=a|b):usable:micro")


# ----------------------------------------------------------------------
# Registry lifecycle
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtins_registered(self):
        names = SCENARIOS.names()
        for name in ("imperceptible", "usable", "thermal", "battery",
                     "netdelay", "bgload"):
            assert name in names

    def test_instances_are_single_use(self):
        platform, scenario = live("imperceptible")
        with pytest.raises(EvaluationError, match="already bound"):
            scenario.bind(platform, RngStreams(0).fork("scenario"))

    @pytest.mark.parametrize(
        "scenario, derived", [("imperceptible", False), ("usable", False), ("netdelay", True)]
    )
    def test_scenario_lane_derived_only_when_drawn(self, monkeypatch, scenario, derived):
        forks = []
        fork = RngStreams.fork

        def spy(self, name):
            forks.append(name)
            return fork(self, name)

        monkeypatch.setattr(RngStreams, "fork", spy)
        run_workload_job({"app": "todo", "governor": "greenweb", "scenario": scenario,
                          "trace_kind": "micro", "seed": 3})
        assert "todo" in forks  # the page's workload lane
        assert ("scenario" in forks) is derived

    def test_lazy_lane_draws_the_eager_lanes_numbers(self):
        platform = odroid_xu_e()
        lazy = SCENARIOS.build("imperceptible").bind(
            platform, lambda: RngStreams(7).fork("scenario")
        )
        eager = RngStreams(7).fork("scenario")
        assert list(lazy.rng.stream("x").integers(0, 1 << 30, 4)) == list(
            eager.stream("x").integers(0, 1 << 30, 4)
        )
        assert lazy.rng is lazy.rng

    def test_third_party_registration(self):
        @SCENARIOS.register(
            "halfway", description="constant 50% relaxation", replace=True
        )
        class HalfwayScenario(Scenario):
            def __init__(self, relax: float = 0.5):
                super().__init__()
                self.relax = relax

            def relax_at(self, now_us):
                return self.relax

        try:
            spec = SCENARIOS.normalize("halfway(relax=0.25)")
            assert spec.canonical() == "halfway(relax=0.25)"
            scenario = SCENARIOS.build(spec)
            assert scenario.relax_at(0) == 0.25
            # The fleet vocabulary follows the registry automatically.
            entry = parse_mix("todo:perf:halfway(relax=0.25)")[0]
            assert entry.scenario == "halfway(relax=0.25)"
        finally:
            SCENARIOS._entries.pop("halfway", None)

    def test_duplicate_registration_refused(self):
        with pytest.raises(EvaluationError, match="already registered"):
            SCENARIOS.register("thermal")
        with pytest.raises(EvaluationError, match=r"^policy 'greenweb' is already registered$"):
            POLICIES.register("greenweb")
        with pytest.raises(EvaluationError, match=r"^policy 'oracle' is already registered$"):
            POLICIES.register("oracle", posthoc=True)


# ----------------------------------------------------------------------
# Builtin dynamics at the platform level
# ----------------------------------------------------------------------
class TestThermal:
    def test_cap_engages_and_lifts(self):
        platform, scenario = live(
            "thermal(cap_mhz=1100,trip_ms=100,hysteresis_ms=300,hot_load=0.5)"
        )
        platform.set_config(CpuConfig("big", 1800))
        context = platform.create_context("load")
        # ~1 s of flat-out big-core work: hot windows accrue, cap trips.
        from repro.hardware.core import WorkUnit

        context.submit(WorkUnit(1.0e6 * 1800), label="heat")
        platform.run_for(500_000)
        assert scenario.engaged
        assert platform.frequency_cap("big") == 1100
        # Over-cap requests clamp while engaged.
        platform.set_config(CpuConfig("big", 1800))
        assert platform.config.freq_mhz <= 1100
        assert scenario.caps_at(platform.kernel.now_us) == {"big": 1100}
        # The load drains; enough consecutive cool windows lift the cap.
        platform.run_for(2_000_000)
        assert not scenario.engaged
        assert platform.frequency_cap("big") is None
        start, end = scenario.engagements[0]
        assert start < end

    def test_existing_over_cap_config_is_clamped_on_engage(self):
        platform, scenario = live(
            "thermal(cap_mhz=1250,trip_ms=50,hysteresis_ms=10000,hot_load=0.1)"
        )
        platform.set_config(CpuConfig("big", 1800))
        from repro.hardware.core import WorkUnit

        platform.create_context("load").submit(WorkUnit(1.0e6 * 1800))
        platform.run_for(400_000)
        assert scenario.engaged
        # Fastest OPP at or below the cap: big@1200.
        assert platform.config == CpuConfig("big", 1200)

    def test_cap_below_opp_table_falls_back_to_slowest(self):
        platform, scenario = live(
            "thermal(cap_mhz=600,trip_ms=50,hysteresis_ms=10000,hot_load=0.1)"
        )
        platform.set_config(CpuConfig("big", 1800))
        from repro.hardware.core import WorkUnit

        platform.create_context("load").submit(WorkUnit(1.0e6 * 1800))
        platform.run_for(400_000)
        assert scenario.engaged
        # No big OPP sits under 600 MHz; the clamp degrades to the
        # slowest entry rather than leaving the cluster over-cap.
        slowest = min(platform.cluster("big").spec.opps.frequencies)
        assert platform.config == CpuConfig("big", slowest)


class TestBattery:
    def test_relaxation_crosses_threshold(self):
        _platform, scenario = live(
            "battery(start_pct=90,drain_pct_per_min=600,relax_at_pct=60)"
        )
        # 30% at 600%/min -> 3 s.
        assert scenario.relax_at(2_999_999) == 0.0
        assert scenario.relax_at(3_000_000) == 1.0
        assert scenario.level_pct(0) == 90.0
        assert scenario.level_pct(3_000_000) == pytest.approx(60.0)

    def test_already_low_battery_equals_usable(self):
        """A battery below its threshold from t=0 is the usable
        scenario, byte for byte (modulo the scenario label)."""
        jobs = {
            name: run_workload_job({
                "app": "todo", "governor": "greenweb", "scenario": scenario,
                "trace_kind": "micro", "seed": 0, "settle_s": 4.0,
            })
            for name, scenario in (
                ("battery", "battery(start_pct=50,drain_pct_per_min=1,relax_at_pct=50)"),
                ("usable", "usable"),
            )
        }
        for result in jobs.values():
            result.pop("scenario")
        assert json.dumps(jobs["battery"], sort_keys=True) == json.dumps(
            jobs["usable"], sort_keys=True
        )


class TestWorkInjection:
    def test_netdelay_injects_bursty_renderer_work(self):
        platform, scenario = live("netdelay(mean_ms=50,burst=2,work_ms=1)")
        platform.run_for(2_000_000)
        assert scenario.arrivals > 10
        assert scenario.extra_work_done_us() == pytest.approx(
            scenario.arrivals * 2 * 1_000.0
        )
        # Same seed, same arrivals; different seed, (almost surely) not.
        platform2, repeat = live("netdelay(mean_ms=50,burst=2,work_ms=1)")
        platform2.run_for(2_000_000)
        assert repeat.arrivals == scenario.arrivals
        platform3, other = live("netdelay(mean_ms=50,burst=2,work_ms=1)", seed=1)
        platform3.run_for(2_000_000)
        assert other.arrivals != scenario.arrivals

    def test_bgload_burns_duty_cycle(self):
        platform, scenario = live("bgload(duty=0.5,period_ms=100)")
        platform.run_for(1_000_000)
        assert scenario.periods >= 9
        assert scenario.extra_work_done_us() == pytest.approx(
            scenario.periods * 0.5 * 100_000.0
        )
        # Chunks are sized for the littlest cluster; on the (faster)
        # current config each runs chunk.duration_us, so total busy time
        # tracks periods x per-chunk duration exactly.  The load is the
        # only context, so wall time with one busy context is its busy
        # time.
        spec = platform.cluster(platform.config.cluster).spec
        per_chunk = scenario._chunk.duration_us(
            spec.ipc_factor, platform.config.freq_mhz
        )
        assert platform.any_busy_us() == pytest.approx(scenario.periods * per_chunk, rel=0.15)

    @pytest.mark.parametrize(
        "spec", ["bgload(duty=0)", "bgload(duty=1.5)", "bgload(period_ms=0)"]
    )
    def test_bgload_rejects_out_of_range(self, spec):
        with pytest.raises(EvaluationError, match="bgload"):
            live(spec)


# ----------------------------------------------------------------------
# Fingerprint semantics (fast spot checks; the differential suite
# covers resume refusal end-to-end)
# ----------------------------------------------------------------------
class TestFingerprint:
    def test_parameters_are_distinct_populations(self):
        def spec(scenario):
            return FleetSpec(
                sessions=2, mix=parse_mix(f"todo:perf:{scenario}")
            ).fingerprint()

        assert spec("thermal(cap_mhz=1100)") != spec("thermal(cap_mhz=900)")
        assert spec("thermal(cap_mhz=1100)") == spec("thermal(cap_mhz =1100)")

    def test_bare_scenarios_fingerprint_as_before(self):
        """Back-compat: un-parameterized mixes hash the bare name, so
        pre-scenario-engine checkpoints still resume."""
        fingerprint = FleetSpec(
            sessions=2, mix=parse_mix("todo:perf:usable")
        ).fingerprint()
        assert fingerprint["mix"][0][2] == "usable"
