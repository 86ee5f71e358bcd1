"""Seeded workload populations and the expected-output table.

Every operation a run performs is drawn from a fixed pool of cells whose
output digests are recorded in ``expected.json`` (regenerate with
``python3 perfbench/gen_expected.py``), so any ``--seed`` can be
checked.  ``--seed`` only decides the order in which a run walks the
pool; the population is a pure function of it.

* ``frames`` and ``short`` walk the pool in *blocks*: each block runs
  every (app, policy[, scenario]) combination once, in a seeded order,
  each with that combination's next session seed.  Every seed therefore
  sees the same app/policy mix, and an app is never repeated with the
  same session seed before the pool is exhausted.
* ``serve`` blocks the same way over its 16 (policy, scenario) jobs:
  each job is 8 sessions of one mix entry, so every block posts the
  same work whatever the seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Iterator

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

FRAMES_APPS = ("cnet", "w3schools", "paperjs", "goo_ne_jp", "amazon")
FRAMES_POLICIES = ("greenweb", "perf", "interactive")
FRAMES_SEEDS = 24

SHORT_APPS = ("bbc", "google", "todo", "camanjs", "lzma_js", "msn")
SHORT_POLICIES = ("greenweb", "perf")
SHORT_SCENARIOS = ("imperceptible", "usable")
SHORT_SEEDS = 128

#: The serve jobs' mix entries: every (policy, dynamic scenario) pair
#: once, apps rotated.
SERVE_POLICIES = ("greenweb", "perf", "ebs", "ondemand")
SERVE_SCENARIOS = ("thermal", "battery", "netdelay", "bgload")
SERVE_ENTRIES = tuple(
    (SHORT_APPS[(p * len(SERVE_SCENARIOS) + s) % len(SHORT_APPS)], policy, scenario)
    for p, policy in enumerate(SERVE_POLICIES)
    for s, scenario in enumerate(SERVE_SCENARIOS)
)
SERVE_SEEDS = 16
SERVE_SESSIONS = 8
SERVE_SHARD_SIZE = 2

#: Session seed of the warm-up operation: outside every pool, so its
#: result can never be reused by a timed operation.
WARMUP_SEED = 1_000_003

WORKLOADS = ("frames", "short", "serve")


@dataclass(frozen=True)
class Op:
    """One operation of a population."""

    workload: str
    #: the expected-table key of this cell
    key: str
    #: the program input: a run_workload_job spec, Session arguments,
    #: or a POST /jobs payload
    spec: dict
    #: last operation of a block (runs stop only at block ends)
    block_end: bool = True


def frames_op(app: str, policy: str, seed: int, block_end: bool = True) -> Op:
    spec = {
        "app": app,
        "governor": policy,
        "scenario": "imperceptible",
        "trace_kind": "full",
        "seed": seed,
        "trace_level": "gated",
    }
    return Op("frames", f"{app}:{policy}:imperceptible:{seed}", spec, block_end)


def short_op(app: str, policy: str, scenario: str, seed: int, block_end: bool = True) -> Op:
    spec = {"app_name": app, "governor": policy, "scenario": scenario, "seed": seed}
    return Op("short", f"{app}:{policy}:{scenario}:{seed}", spec, block_end)


def serve_op(app: str, policy: str, scenario: str, fleet_seed: int,
             block_end: bool = True) -> Op:
    spec = {
        "sessions": SERVE_SESSIONS,
        "seed": fleet_seed,
        "mix": f"{app}:{policy}:{scenario}",
        "shard_size": SERVE_SHARD_SIZE,
    }
    return Op("serve", f"{app}:{policy}:{scenario}:{fleet_seed}", spec, block_end)


def _blocks(rng: random.Random, combos: list[tuple], seeds: int, make) -> Iterator[Op]:
    orders = {combo: rng.sample(range(seeds), seeds) for combo in combos}
    for block in itertools.count():
        shuffled = rng.sample(combos, len(combos))
        for position, combo in enumerate(shuffled):
            seed = orders[combo][block % seeds]
            yield make(*combo, seed, block_end=position == len(shuffled) - 1)


def population(workload: str, seed: int) -> Iterator[Op]:
    """The endless operation sequence of ``workload`` for ``seed``."""
    rng = random.Random(f"perfbench/{workload}/{seed}")
    if workload == "frames":
        combos = list(itertools.product(FRAMES_APPS, FRAMES_POLICIES))
        return _blocks(rng, combos, FRAMES_SEEDS, frames_op)
    if workload == "short":
        combos = list(itertools.product(SHORT_APPS, SHORT_POLICIES, SHORT_SCENARIOS))
        return _blocks(rng, combos, SHORT_SEEDS, short_op)
    if workload == "serve":
        return _blocks(rng, list(SERVE_ENTRIES), SERVE_SEEDS, serve_op)
    raise ValueError(f"unknown workload {workload!r}; known: {list(WORKLOADS)}")


def pool(workload: str) -> list[Op]:
    """Every cell of a workload's pool, in a fixed order."""
    if workload == "frames":
        return [
            frames_op(app, policy, seed)
            for app, policy in itertools.product(FRAMES_APPS, FRAMES_POLICIES)
            for seed in range(FRAMES_SEEDS)
        ]
    if workload == "short":
        return [
            short_op(app, policy, scenario, seed)
            for app, policy, scenario in itertools.product(
                SHORT_APPS, SHORT_POLICIES, SHORT_SCENARIOS
            )
            for seed in range(SHORT_SEEDS)
        ]
    if workload == "serve":
        return [
            serve_op(*entry, fleet_seed)
            for entry in SERVE_ENTRIES
            for fleet_seed in range(SERVE_SEEDS)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def warmup_op(workload: str) -> Op:
    if workload == "frames":
        return frames_op(FRAMES_APPS[0], FRAMES_POLICIES[0], WARMUP_SEED)
    if workload == "short":
        return short_op(SHORT_APPS[0], SHORT_POLICIES[0], SHORT_SCENARIOS[0], WARMUP_SEED)
    return serve_op(*SERVE_ENTRIES[0], WARMUP_SEED)


def population_digest(workload: str, seed: int, ops: int = 100) -> str:
    """SHA-256 over the keys of the first ``ops`` operations: pins the
    generator, independently of the program's outputs."""
    keys = (op.key for op in itertools.islice(population(workload, seed), ops))
    return hashlib.sha256("\n".join(keys).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Canonical output bytes and their digests
# ----------------------------------------------------------------------
def result_bytes(result_dict: dict) -> bytes:
    """Canonical bytes of one session's ``run_result_to_dict`` output."""
    return json.dumps(result_dict, sort_keys=True, separators=(",", ":")).encode("utf-8")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_expected(path: str = EXPECTED_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
