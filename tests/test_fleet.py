"""Tests for the fleet simulator: specs, aggregation, driver, CLI."""

import json

import pytest
from hypothesis import given, strategies as st

from repro.errors import EvaluationError
from repro.evaluation.runner import (
    run_result_from_dict,
    run_result_to_dict,
    run_workload,
    run_workload_job,
)
from repro.fleet import (
    Accumulator,
    Fleet,
    FleetAggregate,
    FleetSpec,
    Histogram,
    MixEntry,
    SessionSpec,
    default_mix,
    parse_mix,
    run_shard_job,
)
from repro.session import Session
from repro.sim.random import derive_seed

from tests.conftest import FAST_MIX


# ----------------------------------------------------------------------
# Seed derivation
# ----------------------------------------------------------------------
class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "fleet-session", 3) == derive_seed(7, "fleet-session", 3)

    def test_distinct_per_key(self):
        seeds = {derive_seed(7, "fleet-session", i) for i in range(100)}
        assert len(seeds) == 100

    def test_distinct_per_root(self):
        assert derive_seed(7, "x", 0) != derive_seed(8, "x", 0)

    def test_range(self):
        for i in range(10):
            assert 0 <= derive_seed(1, i) < 2**63


# ----------------------------------------------------------------------
# Mix parsing and population expansion
# ----------------------------------------------------------------------
class TestMix:
    def test_parse_full_item(self):
        (entry,) = parse_mix("amazon:perf:usable:full=2.5")
        assert entry == MixEntry("amazon", "perf", "usable", "full", 2.5)

    def test_parse_defaults(self):
        (entry,) = parse_mix("todo")
        assert entry == MixEntry("todo", "greenweb", "imperceptible", "micro", 1.0)

    def test_parse_multiple(self):
        entries = parse_mix("todo:greenweb=3, cnet:perf")
        assert [e.app for e in entries] == ["todo", "cnet"]
        assert entries[0].weight == 3.0

    @pytest.mark.parametrize(
        "bad",
        ["", "nosuchapp", "todo:nosuchgov", "todo:perf:nosuchscenario",
         "todo:perf:usable:nosuchtrace", "todo=zero", "todo=-1",
         "todo:perf:usable:full:extra"],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(EvaluationError):
            parse_mix(bad)

    @pytest.mark.parametrize(
        "kwargs, match",
        [(dict(app="netscape"), "unknown application 'netscape'"),
         (dict(app="todo", governor="warp"), "unknown policy 'warp'"),
         (dict(app="todo", scenario="usabel"), "unknown scenario 'usabel'")],
        ids=["app", "governor", "scenario"],
    )
    def test_entry_rejects(self, kwargs, match):
        with pytest.raises(EvaluationError, match=match):
            FleetSpec(sessions=1, mix=[MixEntry(**kwargs)])

    @pytest.mark.parametrize(
        "scenario, canonical",
        [("usable", "usable"),
         ("thermal(trip_ms=2e3, cap_mhz=900)", "thermal(cap_mhz=900,trip_ms=2000.0)")],
        ids=["static", "parameterized"],
    )
    def test_entry_scenarios_stored_canonically(self, scenario, canonical):
        spec = FleetSpec(sessions=1, mix=[MixEntry("todo", scenario=scenario)])
        assert spec.mix[0].scenario == canonical

    def test_default_mix_covers_all_apps(self):
        entries = default_mix()
        assert len({e.app for e in entries}) == 12
        assert {e.governor for e in entries} == {"greenweb", "perf"}


class TestExpansion:
    def test_deterministic(self):
        spec = FleetSpec(sessions=50, seed=7, mix=FAST_MIX)
        assert spec.expand() == spec.expand()

    def test_seed_changes_assignment(self):
        a = FleetSpec(sessions=50, seed=7, mix=FAST_MIX).expand()
        b = FleetSpec(sessions=50, seed=8, mix=FAST_MIX).expand()
        assert a != b

    def test_session_seeds_distinct(self):
        specs = FleetSpec(sessions=50, seed=7, mix=FAST_MIX).expand()
        assert len({s.seed for s in specs}) == 50

    def test_weights_respected(self):
        mix = parse_mix("todo:greenweb=9,cnet:perf=1")
        specs = FleetSpec(sessions=400, seed=0, mix=mix).expand()
        todo = sum(1 for s in specs if s.app == "todo")
        assert todo > 300  # ~90% of 400

    def test_sharding_partitions_population(self):
        spec = FleetSpec(sessions=20, seed=7, mix=FAST_MIX, shard_size=6)
        shards = spec.shards()
        assert [len(s) for s in shards] == [6, 6, 6, 2]
        flat = [session for shard in shards for session in shard.sessions]
        assert flat == spec.expand()

    @pytest.mark.parametrize(
        "kwargs",
        [dict(sessions=0), dict(sessions=4, shard_size=0),
         dict(sessions=4, max_retries=-1), dict(sessions=4, mix=[]),
         dict(sessions=4, settle_s=float("nan")), dict(sessions=4, settle_s=-5.0),
         dict(sessions=4, settle_s=float("inf")),
         dict(sessions=4, shard_timeout_s=-1.0), dict(sessions=4, shard_timeout_s=0.0),
         dict(sessions=4, shard_timeout_s=float("nan")),
         dict(sessions=4, mix=[MixEntry("todo", weight=float("inf"))]),
         dict(sessions=4, mix=[MixEntry("todo", weight=1e308), MixEntry("cnet", weight=1e308)])],
    )
    def test_spec_validation(self, kwargs):
        with pytest.raises(EvaluationError):
            FleetSpec(**kwargs)


# ----------------------------------------------------------------------
# Grid fleets: explicit cells x explicit seeds, rows kept
# ----------------------------------------------------------------------
#: The mix fleet ``TestFleetDriver.SPEC`` fingerprint, pinned: adding
#: the grid form must not move a mix fleet's fingerprint or checkpoint
#: header.
MIX_FINGERPRINT = {
    "version": 2,
    "sessions": 8,
    "seed": 7,
    "mix": [["todo", "greenweb", "imperceptible", "micro", 1.0],
            ["cnet", "perf", "imperceptible", "micro", 1.0]],
    "shard_size": 3,
    "settle_s": 4.0,
}


class TestGrid:
    SPEC = dict(sessions=6, mix=FAST_MIX, seeds=(3, 1, 4), shard_size=4)

    def test_expansion_is_cells_by_explicit_seeds(self):
        specs = FleetSpec(**self.SPEC).expand()
        assert [(s.index, s.app, s.governor, s.seed) for s in specs] == [
            (0, "todo", "greenweb", 3), (1, "todo", "greenweb", 1),
            (2, "todo", "greenweb", 4), (3, "cnet", "perf", 3),
            (4, "cnet", "perf", 1), (5, "cnet", "perf", 4),
        ]
        # The root seed derives nothing in a grid.
        assert FleetSpec(**self.SPEC, seed=99).expand() == specs

    @pytest.mark.parametrize("sessions", [1, 5, 7, 12])
    def test_mismatched_sessions_refused(self, sessions):
        with pytest.raises(EvaluationError, match="2 cells x 3 seeds has 6 sessions"):
            FleetSpec(**{**self.SPEC, "sessions": sessions})

    def test_mix_fingerprint_unchanged(self):
        fingerprint = FleetSpec(sessions=8, seed=7, mix=FAST_MIX, shard_size=3).fingerprint()
        assert "seeds" not in fingerprint
        assert fingerprint == MIX_FINGERPRINT

    def test_grid_fingerprint_names_its_seeds(self):
        fingerprint = FleetSpec(**self.SPEC).fingerprint()
        assert fingerprint["seeds"] == [3, 1, 4]
        assert fingerprint != FleetSpec(**{**self.SPEC, "seeds": (3, 1, 5)}).fingerprint()

    def test_runs_in_population_order_at_any_job_count(self):
        spec = FleetSpec(**self.SPEC)
        expected = [run_workload_job(s.to_job()) for s in spec.expand()]
        for jobs in (1, 2):
            result = Fleet(FleetSpec(**self.SPEC), jobs=jobs).run()
            assert result.ok
            assert result.runs == expected

    def test_checkpoint_resumes_to_the_same_runs(self, tmp_path):
        path = str(tmp_path / "grid.jsonl")
        crashing = FleetSpec(
            **self.SPEC, max_retries=0, inject_crash={"shard": 1, "attempts": 99}
        )
        failed = Fleet(crashing, jobs=1, checkpoint=path).run()
        assert not failed.ok
        assert [run["app"] for run in failed.runs] == ["todo"] * 3 + ["cnet"]
        resumed = Fleet(FleetSpec(**self.SPEC), jobs=2, checkpoint=path, resume=True).run()
        assert resumed.ok and resumed.resumed_shards == 1
        # Key order too: residency sums (Fig. 11) follow it.
        clean = Fleet(FleetSpec(**self.SPEC)).run()
        assert json.dumps(resumed.runs) == json.dumps(clean.runs)

    def test_mix_journal_refused_for_a_grid_resume(self, tmp_path):
        path = str(tmp_path / "mix.jsonl")
        assert Fleet(FleetSpec(sessions=6, mix=FAST_MIX, shard_size=4),
                     checkpoint=path).run().ok
        with pytest.raises(EvaluationError, match="mismatched: seeds"):
            Fleet(FleetSpec(**self.SPEC), checkpoint=path, resume=True).run()

    def test_mix_partials_carry_no_runs(self, tmp_path):
        path = str(tmp_path / "mix.jsonl")
        partials = []
        result = Fleet(
            FleetSpec(sessions=4, seed=7, mix=FAST_MIX, shard_size=3), checkpoint=path,
            on_shard=lambda partial, accepted, total: partials.append(partial),
        ).run()
        assert result.ok and result.runs == []
        assert [sorted(partial) for partial in partials] == [
            ["aggregate", "sessions", "shard"]
        ] * 2
        with open(path) as handle:
            assert all('"runs"' not in line for line in handle)


class TestRunResultFromDict:
    def test_round_trip(self):
        result = run_workload("amazon", "greenweb", "imperceptible", "full", seed=0)
        assert result.runtime_stats["predictions"] > 0
        data = run_result_to_dict(result)
        assert run_result_from_dict(data) == result
        # Through JSON too, as a checkpointed grid row travels.
        assert run_result_from_dict(json.loads(json.dumps(data))) == result


# ----------------------------------------------------------------------
# Mergeable metrics
# ----------------------------------------------------------------------
class TestAccumulator:
    def test_basic_stats(self):
        acc = Accumulator()
        for value in (3.0, 1.0, 2.0):
            acc.add(value)
        assert (acc.count, acc.sum, acc.min, acc.max, acc.mean) == (3, 6.0, 1.0, 3.0, 2.0)

    def test_merge_matches_bulk(self):
        values = [0.5, 2.5, -1.0, 7.0, 3.25]
        bulk = Accumulator()
        for value in values:
            bulk.add(value)
        left, right = Accumulator(), Accumulator()
        for value in values[:2]:
            left.add(value)
        for value in values[2:]:
            right.add(value)
        left.merge(right)
        assert left == bulk

    def test_merge_empty(self):
        acc = Accumulator()
        acc.add(1.0)
        acc.merge(Accumulator())
        assert (acc.count, acc.min) == (1, 1.0)

    def test_empty_mean(self):
        assert Accumulator().mean == 0.0


class TestHistogram:
    def test_bucketing(self):
        hist = Histogram(lo=0.0, hi=10.0, buckets=5)
        for value in (0.0, 1.9, 2.0, 9.99, -1.0, 10.0, 100.0):
            hist.add(value)
        assert hist.counts == [2, 1, 0, 0, 1]
        assert (hist.underflow, hist.overflow) == (1, 2)
        assert hist.total == 7

    def test_merge_matches_bulk(self):
        values = [0.1, 3.3, 9.9, -5.0, 12.0, 5.0]
        bulk = Histogram(0.0, 10.0, 4)
        for value in values:
            bulk.add(value)
        left, right = Histogram(0.0, 10.0, 4), Histogram(0.0, 10.0, 4)
        for value in values[:3]:
            left.add(value)
        for value in values[3:]:
            right.add(value)
        left.merge(right)
        assert left == bulk

    def test_merge_rejects_layout_mismatch(self):
        with pytest.raises(EvaluationError):
            Histogram(0.0, 10.0, 4).merge(Histogram(0.0, 10.0, 5))

    def test_dict_round_trip(self):
        hist = Histogram(0.0, 10.0, 4)
        hist.add(3.0)
        hist.add(42.0)
        assert Histogram.from_dict(hist.to_dict()) == hist

    def test_rejects_bad_bounds(self):
        with pytest.raises(EvaluationError):
            Histogram(5.0, 5.0, 4)

    def test_value_just_below_hi_lands_in_last_bucket(self):
        # 0.7 + 0.7*...: float multiply-divide used to round values just
        # below hi to index == buckets and silently clamp; the edge-safe
        # index must put math.nextafter(hi, lo) in the last real bucket.
        import math

        hist = Histogram(lo=0.0, hi=0.7, buckets=7)
        hist.add(math.nextafter(0.7, 0.0))
        assert hist.counts[-1] == 1
        assert hist.overflow == 0

    def test_boundary_values_land_on_their_own_edge(self):
        hist = Histogram(lo=0.0, hi=1.0, buckets=10)
        for index in range(10):
            hist.add(hist.edge(index))
        assert hist.counts == [1] * 10

    @given(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
        st.integers(min_value=1, max_value=64),
    )
    def test_add_agrees_with_explicit_edge_comparison(self, value, lo, span, buckets):
        hist = Histogram(lo=lo, hi=lo + span, buckets=buckets)
        hist.add(value)
        if value < hist.lo:
            assert (hist.underflow, hist.overflow) == (1, 0)
            assert sum(hist.counts) == 0
        elif value >= hist.hi:
            assert (hist.underflow, hist.overflow) == (0, 1)
            assert sum(hist.counts) == 0
        else:
            assert (hist.underflow, hist.overflow) == (0, 0)
            assert sum(hist.counts) == 1
            index = hist.counts.index(1)
            assert hist.edge(index) <= value
            assert index == buckets - 1 or value < hist.edge(index + 1)


class TestFleetAggregate:
    def _run(self, **overrides):
        run = {
            "app": "todo", "governor": "greenweb", "energy_j": 1.0,
            "active_energy_j": 0.25, "mean_violation_pct": 10.0,
            "active_time_s": 0.5, "frames": 60, "inputs": 10,
        }
        run.update(overrides)
        return run

    def test_add_run(self):
        agg = FleetAggregate()
        agg.add_run(self._run())
        agg.add_run(self._run(app="cnet", governor="perf", energy_j=3.0))
        assert agg.sessions == 2
        assert agg.energy_j.sum == 4.0
        assert set(agg.by_governor) == {"greenweb", "perf"}
        assert set(agg.by_app) == {"todo", "cnet"}
        assert agg.by_governor["greenweb"].sessions == 1

    def test_latency_hist_skips_inputless_runs(self):
        agg = FleetAggregate()
        agg.add_run(self._run(inputs=0))
        assert agg.latency_hist.total == 0

    def test_merge_matches_bulk(self):
        runs = [self._run(energy_j=float(i), mean_violation_pct=5.0 * i)
                for i in range(6)]
        bulk = FleetAggregate()
        for run in runs:
            bulk.add_run(run)
        left, right = FleetAggregate(), FleetAggregate()
        for run in runs[:3]:
            left.add_run(run)
        for run in runs[3:]:
            right.add_run(run)
        left.merge(right)
        assert left.to_dict() == bulk.to_dict()

    def test_json_round_trip(self):
        agg = FleetAggregate()
        agg.add_run(self._run())
        data = json.loads(json.dumps(agg.to_dict()))
        assert FleetAggregate.from_dict(data).to_dict() == agg.to_dict()


# ----------------------------------------------------------------------
# Worker entry points
# ----------------------------------------------------------------------
class TestRunWorkloadJob:
    def test_plain_data_round_trip(self):
        out = run_workload_job(
            {"app": "todo", "governor": "greenweb", "trace_kind": "micro", "seed": 1}
        )
        # JSON round-trip proves there is nothing un-serialisable inside.
        assert json.loads(json.dumps(out))["app"] == "todo"
        assert out["energy_j"] > 0
        assert "@" in next(iter(out["config_residency"]))

    def test_matches_run_workload_defaults(self):
        from repro.evaluation.runner import run_workload

        via_job = run_workload_job({"app": "todo", "trace_kind": "micro", "seed": 2})
        direct = run_workload(
            "todo", "greenweb", "imperceptible", "micro", seed=2
        )
        assert via_job["energy_j"] == direct.energy_j
        assert via_job["mean_violation_pct"] == direct.mean_violation_pct

    def test_unknown_keys_are_ignored(self):
        # perfbench's frames ops still send the retired "trace_level" key.
        job = {"app": "todo", "governor": "greenweb", "scenario": "imperceptible",
               "trace_kind": "full", "seed": 3}
        assert run_workload_job(dict(job, trace_level="gated")) == run_workload_job(job)

    def test_session_spec_job_matches_session(self):
        """A fleet session's job runs the same cell as the Session facade."""
        job = SessionSpec(
            index=0, app="todo", governor="perf", scenario="imperceptible",
            trace_kind="micro", seed=5,
        ).to_job()
        out = run_workload_job(job)
        assert out["governor"] == "perf"
        session = Session.for_application("todo", governor="perf", seed=5)
        assert out == run_result_to_dict(session.run_micro_interaction())


class TestRunShardJob:
    def test_aggregates_sessions(self):
        jobs = [{"app": "todo", "trace_kind": "micro", "seed": s} for s in (0, 1)]
        out = run_shard_job({"shard": 0, "sessions": jobs, "attempt": 0})
        assert out["shard"] == 0
        assert out["sessions"] == 2
        assert out["aggregate"]["sessions"] == 2

    def test_crash_hook_attempt_gated(self):
        payload = {
            "shard": 1, "sessions": [], "attempt": 0,
            "inject_crash": {"shard": 1, "attempts": 1},
        }
        with pytest.raises(RuntimeError):
            run_shard_job(payload)
        payload["attempt"] = 1
        assert run_shard_job(payload)["sessions"] == 0

    def test_crash_hook_targets_one_shard(self):
        payload = {
            "shard": 0, "sessions": [], "attempt": 0,
            "inject_crash": {"shard": 1, "attempts": 1},
        }
        assert run_shard_job(payload)["shard"] == 0


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------
class TestFleetDriver:
    SPEC = dict(sessions=8, seed=7, mix=FAST_MIX, shard_size=3)

    def test_jobs_do_not_change_bytes(self):
        serial = Fleet(FleetSpec(**self.SPEC), jobs=1).run()
        pooled = Fleet(FleetSpec(**self.SPEC), jobs=4).run()
        assert serial.to_json() == pooled.to_json()
        assert serial.ok and pooled.ok
        assert pooled.sessions_completed == 8

    def test_aggregate_matches_manual_runs(self):
        result = Fleet(FleetSpec(**self.SPEC), jobs=1).run()
        expected = sum(
            run_workload_job(s.to_job())["energy_j"]
            for s in FleetSpec(**self.SPEC).expand()
        )
        assert result.aggregate.energy_j.sum == pytest.approx(expected)

    def test_transient_crash_retried_and_invisible(self):
        crashing = FleetSpec(
            **self.SPEC, max_retries=1, inject_crash={"shard": 1, "attempts": 1}
        )
        result = Fleet(crashing, jobs=2).run()
        clean = Fleet(FleetSpec(**self.SPEC), jobs=1).run()
        assert result.ok
        assert result.retries == 1
        # The retried shard reruns deterministically: the aggregate is
        # exactly what a crash-free fleet produces.
        assert result.aggregate.to_dict() == clean.aggregate.to_dict()

    def test_permanent_crash_isolated(self):
        crashing = FleetSpec(
            **self.SPEC, max_retries=1, inject_crash={"shard": 1, "attempts": 99}
        )
        result = Fleet(crashing, jobs=2).run()
        assert not result.ok
        assert [f.shard for f in result.failures] == [1]
        assert result.failures[0].attempts == 2
        assert result.sessions_completed == 8 - 3  # shard 1 held 3 sessions
        assert result.aggregate.sessions == 5
        summary = result.to_dict()["run"]
        assert summary["failed_shards"][0]["shard"] == 1
        assert summary["retries"] == 1

    def test_inline_and_pooled_agree_on_failures(self):
        crashing = dict(
            **self.SPEC, max_retries=0, inject_crash={"shard": 0, "attempts": 99}
        )
        inline = Fleet(FleetSpec(**crashing), jobs=1).run()
        pooled = Fleet(FleetSpec(**crashing), jobs=2).run()
        assert [f.shard for f in inline.failures] == [f.shard for f in pooled.failures]
        assert inline.aggregate.to_dict() == pooled.aggregate.to_dict()

    def test_dying_worker_retried_and_invisible(self):
        # The worker running shard 1 dies outright (os._exit) on the
        # first attempt.  Only that shard is charged a retry — the shard
        # running beside it on the healthy worker reruns for free — so
        # the output is a clean run's, apart from the one retry.
        dying = FleetSpec(
            **self.SPEC, inject_crash={"shard": 1, "attempts": 1, "mode": "exit"}
        )
        result = Fleet(dying, jobs=2).run()
        assert result.ok
        assert result.retries == 1
        expected = Fleet(FleetSpec(**self.SPEC), jobs=1).run().to_dict()
        expected["run"]["retries"] = 1
        assert result.to_json() == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    def test_exit_mode_raises_inline(self):
        # Inline, the "worker" is the driver itself: the hook raises
        # instead of ending the process.
        dying = FleetSpec(
            **self.SPEC, inject_crash={"shard": 1, "attempts": 1, "mode": "exit"}
        )
        result = Fleet(dying, jobs=1).run()
        assert result.ok and result.retries == 1

    def test_hung_shard_times_out_and_retries(self):
        # The timeout must leave room for the retry to run on a cold,
        # freshly rebuilt pool (worker start + package import).
        hanging = FleetSpec(
            sessions=4, seed=7, mix=FAST_MIX, shard_size=2, max_retries=1,
            shard_timeout_s=3.0,
            inject_crash={"shard": 1, "attempts": 1, "mode": "sleep", "sleep_s": 30.0},
        )
        result = Fleet(hanging, jobs=2).run()
        assert result.ok
        assert result.retries == 1
        assert result.sessions_completed == 4

    def test_hung_workers_free_their_slots(self):
        # Hang BOTH workers at once.  Abandoning the futures (the old
        # behaviour) would leave zero usable pool slots, so the queued
        # shards 2 and 3 could only sit out their deadlines — billed
        # for queue wait they never caused — and the whole fleet would
        # be falsely marked failed.  Killing and rebuilding the pool
        # must instead run every shard to completion.
        hanging = FleetSpec(
            sessions=4, seed=7, mix=FAST_MIX, shard_size=1, max_retries=1,
            shard_timeout_s=4.0,
            inject_crash={
                "shard": [0, 1], "attempts": 1, "mode": "sleep", "sleep_s": 30.0,
            },
        )
        result = Fleet(hanging, jobs=2).run()
        assert result.ok
        # Exactly the two hung shards are charged retries; the queued
        # bystanders are requeued free of charge.
        assert result.retries == 2
        assert result.sessions_completed == 4
        clean = Fleet(
            FleetSpec(sessions=4, seed=7, mix=FAST_MIX, shard_size=1), jobs=1
        ).run()
        assert result.aggregate.to_dict() == clean.aggregate.to_dict()

    def test_owned_pool_sized_to_the_work(self, monkeypatch):
        import repro.fleet.driver as driver

        sizes = []

        class SpyPool(driver.WorkerPool):
            def __init__(self, workers):
                sizes.append(workers)
                super().__init__(workers)

        monkeypatch.setattr(driver, "WorkerPool", SpyPool)
        result = Fleet(FleetSpec(**self.SPEC), jobs=8).run()  # 3 shards
        assert result.ok
        assert sizes == [3]
        assert result.jobs == 8

    def test_rejects_zero_jobs(self):
        with pytest.raises(EvaluationError):
            Fleet(FleetSpec(**self.SPEC), jobs=0)


# ----------------------------------------------------------------------
# Parallel figures
# ----------------------------------------------------------------------
class TestParallelFigures:
    def test_fig9_rows_identical_across_jobs(self):
        from repro.evaluation.experiments import run_fig9_microbenchmarks

        serial = run_fig9_microbenchmarks(apps=["todo"], jobs=1)
        pooled = run_fig9_microbenchmarks(apps=["todo"], jobs=2)
        assert serial == pooled

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_matrix_rejects_fewer_than_one_job(self, jobs):
        from repro.evaluation.experiments import run_fig9_microbenchmarks

        with pytest.raises(EvaluationError, match=">= 1 job"):
            run_fig9_microbenchmarks(apps=["todo"], jobs=jobs)
