"""Cold-vs-warm parity for the per-process parse caches.

``parse_stylesheet`` and ``parse_html`` parse each distinct text once
per process and hand every caller fresh objects over the shared parse.
A session must therefore produce the same result bytes whether it is
the first thing a fresh interpreter runs (cold caches) or runs after
every application has been built (warm caches), and neither may depend
on the hash seed.  Each probe runs in its own interpreter so the cold
case really is cold.
"""

import os
import subprocess
import sys

import repro

#: One ``short`` cell (micro interaction through the Session facade)
#: and one ``frames`` cell (full trace, gated tracing), each printed as
#: canonical ``run_result_to_dict`` JSON: first cold, then warm.
PROBE = """
import json
from repro import Session
from repro.evaluation.runner import run_result_to_dict, run_workload_job
from repro.workloads import APP_NAMES, build_app

def cells():
    short = Session(app_name="todo", governor="greenweb", scenario="usable", seed=5)
    yield run_result_to_dict(short.run_micro_interaction())
    yield run_workload_job({"app": "cnet", "governor": "greenweb", "trace_kind": "full",
                            "seed": 2, "trace_level": "gated"})

for result in cells():
    print("cold", json.dumps(result, sort_keys=True, separators=(",", ":")))
for name in APP_NAMES:
    build_app(name, 0)
for result in cells():
    print("warm", json.dumps(result, sort_keys=True, separators=(",", ":")))
"""

HASH_SEEDS = ("0", "4242")


def run_probe(hash_seed: str) -> list[str]:
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True,
        timeout=300, check=True,
    )
    return completed.stdout.splitlines()


def test_cold_and_warm_caches_give_identical_bytes():
    outputs = {seed: run_probe(seed) for seed in HASH_SEEDS}
    for lines in outputs.values():
        assert [line.split(" ", 1)[0] for line in lines] == ["cold", "cold", "warm", "warm"]
        cold = [line.split(" ", 1)[1] for line in lines[:2]]
        warm = [line.split(" ", 1)[1] for line in lines[2:]]
        assert cold == warm
        assert '"app":"todo"' in cold[0] and '"app":"cnet"' in cold[1]
    first, second = outputs.values()
    assert first == second
