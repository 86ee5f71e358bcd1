"""Self-tests of the benchmark harness: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import layers, population, stats
from perfbench.run import END_TO_END, SESSION_LAYERS, layer_metric, per_layer_metrics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def expected():
    return population.load_expected()


def run_benchmark(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


# ----------------------------------------------------------------------
# The percentile rule
# ----------------------------------------------------------------------
class TestPercentileRule:
    def test_ten_samples_beyond_the_percentile(self):
        assert stats.min_samples(0.9) == 100
        assert stats.min_samples(0.5) == 20
        assert stats.min_samples(0.99) == 1000

    def test_refuses_too_few_samples(self):
        with pytest.raises(ValueError, match="needs >= 100 samples"):
            stats.percentile([float(i) for i in range(99)], 0.9)

    def test_nearest_rank(self):
        samples = [float(i) for i in range(1, 101)]
        assert stats.percentile(samples, 0.9) == 90.0
        beyond = [value for value in samples if value > stats.percentile(samples, 0.9)]
        assert len(beyond) == stats.TAIL_SAMPLES


# ----------------------------------------------------------------------
# Seeded generator
# ----------------------------------------------------------------------
class TestGenerator:
    @pytest.mark.parametrize("workload", population.WORKLOADS)
    def test_same_seed_same_population(self, workload):
        first = list(itertools.islice(population.population(workload, 5), 300))
        again = list(itertools.islice(population.population(workload, 5), 300))
        other = list(itertools.islice(population.population(workload, 6), 300))
        assert first == again
        assert first != other

    @pytest.mark.parametrize("workload", population.WORKLOADS)
    def test_named_seeds_are_pinned(self, workload, expected):
        for seed, want in expected["populations"][workload].items():
            assert population.population_digest(workload, int(seed)) == want

    @pytest.mark.parametrize("workload", population.WORKLOADS)
    def test_every_op_has_an_expected_digest(self, workload, expected):
        ops = itertools.islice(population.population(workload, 11), 4000)
        assert all(op.key in expected[workload] for op in ops)
        assert population.warmup_op(workload).key not in expected[workload]

    def test_blocks_run_every_combination_once(self):
        ops = list(itertools.islice(population.population("short", 3), 48))
        blocks = [ops[:24], ops[24:]]
        for block in blocks:
            combos = {op.key.rsplit(":", 1)[0] for op in block}
            assert len(combos) == 24
            assert block[-1].block_end and not any(op.block_end for op in block[:-1])
        # The same app/policy/scenario repeats only with a fresh seed.
        assert not {op.key for op in blocks[0]} & {op.key for op in blocks[1]}


# ----------------------------------------------------------------------
# Layer map and wrapper lifetime
# ----------------------------------------------------------------------
class TestLayers:
    def test_every_target_resolves_and_maps_to_a_reported_layer(self):
        reported = {name for name, _unit in per_layer_metrics()}
        for layer, target in layers.all_targets():
            owner, name = layers.resolve(target)
            assert hasattr(owner, name), target
            if layer in {name for name, _g, _t in SESSION_LAYERS}:
                assert layer_metric(layer) in reported
            elif layer != "probe":
                assert f"{layer}.ms" in reported, layer

    def test_session_wrappers_are_removed(self):
        import repro.evaluation.runner as runner

        original = runner.build_app
        tracer = layers.Tracer(layers.session_layer_names() + ["session"])
        patches = layers.Patches()
        layers.SessionProbe().install(patches)
        layers.install_session_layers(tracer, patches)
        installed = layers.find_installed()
        assert runner.build_app is not original
        assert any("SessionExecution.finish" in where for where in installed)
        patches.undo()
        assert layers.find_installed() == []
        assert runner.build_app is original

    def test_serve_wrappers_are_removed(self):
        shards, patches = layers.ShardProbe(), layers.Patches()
        shards.install(patches)
        serve = layers.ServeTracer(shards)
        serve.install()
        assert shards.tracer is serve.tracer
        assert len(layers.find_installed()) > 1
        serve.uninstall()
        assert shards.tracer is None
        assert {where.rsplit(":", 1)[1] for where in layers.find_installed()} == {
            "WorkerPool.submit"
        }
        patches.undo()
        assert layers.find_installed() == []

    def test_self_times_partition_the_root(self):
        tracer = layers.Tracer(["outer", "inner", "session"], raw_limit=10)

        def inner():
            return sum(range(20000))

        def outer():
            return tracer.span("inner", inner)() + tracer.span("inner", inner)()

        tracer.run("session", tracer.span("outer", outer))
        totals = tracer.totals()
        assert totals["inner"][1] == 2 and totals["outer"][1] == 1
        root = tracer.raw[0]
        assert root[0] == "session" and root[3] == -1
        assert sum(ns for ns, _calls in totals.values()) == root[2] - root[1]


# ----------------------------------------------------------------------
# Output digests across processes
# ----------------------------------------------------------------------
def test_digests_identical_across_hash_seeds_and_numpy(expected):
    outputs = []
    for extra in ({"PYTHONHASHSEED": "0"}, {"PYTHONHASHSEED": "4242"}, {"REPRO_NO_NUMPY": "1"}):
        env = dict(os.environ, **extra)
        done = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "gen_expected.py"), "--sample"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=170, check=True,
        )
        outputs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    assert outputs[0] == outputs[1] == outputs[2]
    for name, value in outputs[0].items():
        workload, key = name.split("/", 1)
        assert value == expected[workload][key]


# ----------------------------------------------------------------------
# Smoke runs and the output contract
# ----------------------------------------------------------------------
def contract_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    return (
        {m["name"]: m["unit"] for m in bench["end_to_end"]},
        {m["name"]: m["unit"] for m in bench["per_layer"]},
        [w["name"] for w in bench["workloads"]],
    )


def test_benchmark_json_matches_the_code():
    end_to_end, per_layer, workloads = contract_names()
    assert end_to_end == dict(END_TO_END)
    assert per_layer == dict(per_layer_metrics())
    assert workloads == list(population.WORKLOADS)


@pytest.mark.parametrize("workload,trace", [
    ("short", "0"), ("short", "1"), ("frames", "1"), ("serve", "0"), ("serve", "1"),
])
def test_smoke_run_has_no_failures(workload, trace):
    done = run_benchmark("--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    end_to_end, per_layer, _ = contract_names()
    names = end_to_end if trace == "0" else per_layer
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    if trace == "0":
        assert result["metrics"]["sim_events_per_s"]["value"] > 0
    if trace == "1" and workload != "serve":
        assert result["metrics"]["layers.attributed.share"]["value"] >= 0.9


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark("--workload", "short", "--seed", "1", "--seconds", "1",
                         cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
