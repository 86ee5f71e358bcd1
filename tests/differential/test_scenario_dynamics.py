"""Differential parity for *dynamic* scenarios.

Static scenarios only pick a constant QoS column, so the static
parity sweep could never catch a regression in time-varying state.
These cells exercise the two stateful scenario families end-to-end:

* ``thermal(...)`` — platform-coupled feedback (utilization integral →
  frequency cap → DVFS clamp), parameters tuned so paperjs's animation
  load actually trips the cap mid-run;
* ``battery(...)`` — virtual-time-driven target relaxation crossing
  its threshold inside the measurement window.

The contract is the same as ``test_batch_parity.py``: result bytes ==
the checked-in ``dynamic_cells`` goldens, and the gated trace level
changes nothing.  On top of that, the fleet
fingerprint must treat two parameterizations of one scenario as
*different populations* (resume refuses), and the oracle's replay
sweep must experience the same thermal cap a live policy does.
"""

import hashlib
import json

import pytest

from repro.errors import EvaluationError
from repro.evaluation.runner import run_workload, run_workload_job
from repro.fleet import Fleet, FleetSpec, parse_mix
from repro.scenarios import SCENARIOS
from tests.conftest import run_cell

THERMAL = "thermal(cap_mhz=1100,trip_ms=200,hysteresis_ms=2000,hot_load=0.2)"
BATTERY = "battery(start_pct=90,drain_pct_per_min=600,relax_at_pct=60)"

#: (app, governor, scenario) — mirrored by
#: ``scripts/gen_parity_fingerprints.py``'s DYNAMIC_CELLS sweep.
DYNAMIC_CELLS = (
    ("paperjs", "perf", THERMAL),
    ("paperjs", "greenweb", BATTERY),
)


def canonical(result: dict) -> str:
    return json.dumps(result, sort_keys=True, separators=(",", ":"))


def fingerprint(result: dict) -> str:
    return hashlib.sha256(canonical(result).encode("utf-8")).hexdigest()


def make_job(base: dict, app: str, governor: str, scenario: str) -> dict:
    return {
        "app": app,
        "governor": governor,
        "scenario": scenario,
        "trace_kind": base["trace_kind"],
        "seed": base["seed"],
        "settle_s": base["settle_s"],
    }


class TestDynamicCellParity:
    def test_cells_match_goldens(self, parity_goldens):
        base = parity_goldens["workload"]
        for app, governor, scenario in DYNAMIC_CELLS:
            scenario_key = SCENARIOS.normalize(scenario).canonical()
            for level in ("full", "gated"):
                result = run_cell(make_job(base, app, governor, scenario), level)
                golden = parity_goldens["dynamic_cells"][
                    f"{app}:{governor}:{scenario_key}:{level}"
                ]
                assert fingerprint(result) == golden

    def test_full_and_gated_identical(self, parity_goldens):
        """Scenario trace events are informational: dropping them under
        gated tracing cannot change a single result byte."""
        base = parity_goldens["workload"]
        for app, governor, scenario in DYNAMIC_CELLS:
            results = {
                level: run_cell(make_job(base, app, governor, scenario), level)
                for level in ("full", "gated")
            }
            assert canonical(results["full"]) == canonical(results["gated"])

    def test_dynamics_change_results(self, parity_goldens):
        """Sanity: the dynamic cells are not vacuous — each scenario's
        bytes differ from the bare imperceptible baseline."""
        base = parity_goldens["workload"]
        for app, governor, scenario in DYNAMIC_CELLS:
            dynamic = run_workload_job(make_job(base, app, governor, scenario))
            static = run_workload_job(make_job(base, app, governor, "imperceptible"))
            assert canonical(dynamic) != canonical(static)


class TestFingerprintAcrossParameters:
    SPEC = dict(sessions=4, seed=7, shard_size=2)

    def mix(self, scenario: str):
        return parse_mix(f"todo:perf:{scenario}:micro")

    def test_fingerprint_distinguishes_parameters(self):
        cap_1100 = FleetSpec(**self.SPEC, mix=self.mix("thermal(cap_mhz=1100)"))
        cap_900 = FleetSpec(**self.SPEC, mix=self.mix("thermal(cap_mhz=900)"))
        assert cap_1100.fingerprint() != cap_900.fingerprint()
        # ...while spelling variations of one parameterization collapse
        # to the same canonical fingerprint.
        reordered = FleetSpec(
            **self.SPEC, mix=self.mix("thermal(trip_ms=2000.0, cap_mhz=1100)")
        )
        baseline = FleetSpec(
            **self.SPEC, mix=self.mix("thermal(cap_mhz=1100,trip_ms=2000)")
        )
        assert reordered.fingerprint() == baseline.fingerprint()

    def test_resume_refuses_across_parameter_change(self, tmp_path):
        path = str(tmp_path / "thermal.jsonl")
        result = Fleet(
            FleetSpec(**self.SPEC, mix=self.mix("thermal(cap_mhz=1100)")),
            jobs=1,
            checkpoint=path,
        ).run()
        assert result.ok
        with pytest.raises(EvaluationError, match="mismatched: mix"):
            Fleet(
                FleetSpec(**self.SPEC, mix=self.mix("thermal(cap_mhz=900)")),
                jobs=1,
                checkpoint=path,
                resume=True,
            ).run()


class TestOracleUnderThermal:
    @pytest.mark.slow
    def test_oracle_replays_honor_thermal_cap(self):
        """The oracle sweep pins configs above the cap, but every replay
        builds a fresh bound scenario whose DVFS clamp applies — so the
        reported run can spend at most the pre-trip window above the
        cap, and knowing the future cannot beat physics: the oracle's
        energy under the cap stays at or below perf's (it is still a
        lower bound) while its over-cap residency collapses."""
        oracle = run_workload("paperjs", "oracle", THERMAL, "micro")
        perf = run_workload("paperjs", "perf", THERMAL, "micro")

        def over_cap_residency(result):
            return sum(
                fraction
                for config, fraction in result.config_residency.items()
                if config.cluster == "big" and config.freq_mhz > 1100
            )

        # trip_ms=200 with hysteresis_ms=2000 keeps the cap engaged for
        # essentially the whole animation once tripped.
        assert over_cap_residency(perf) < 0.05
        assert over_cap_residency(oracle) < 0.05
        assert oracle.energy_j <= perf.energy_j + 1e-9
