"""Cold-vs-warm parity for the per-process parse caches and app templates.

``parse_stylesheet`` parses each distinct text once per process, and
each application's template (frozen document, rules, traces) is built
once per process; every session gets fresh per-seed objects over the
shared parts.  A session must therefore produce the
same result bytes whether it is the first session of its application
in a fresh interpreter (cold template) or runs after other seeds of the
same application have used the template (warm), and neither may depend
on the hash seed.  The probe covers every application: the micro trace
of the six light apps (perfbench's ``short`` cells) and the full trace
of the five frame-heavy apps (its ``frames`` cells).
"""

import os
import subprocess
import sys

import repro

#: Each cell printed as canonical ``run_result_to_dict`` JSON: first
#: cold, then warm after two other seeds of the same app have run.
PROBE = """
import json
from repro import Session
from repro.evaluation.runner import run_result_to_dict, run_workload_job

SHORT = ("bbc", "google", "todo", "camanjs", "lzma_js", "msn")
FRAMES = ("cnet", "w3schools", "paperjs", "goo_ne_jp", "amazon")

def short(app, seed):
    session = Session(app_name=app, governor="greenweb", scenario="usable", seed=seed)
    return run_result_to_dict(session.run_micro_interaction())

def frames(app, seed):
    return run_workload_job({"app": app, "governor": "greenweb", "trace_kind": "full",
                             "seed": seed})

def dump(result):
    return json.dumps(result, sort_keys=True, separators=(",", ":"))

for run, apps in ((short, SHORT), (frames, FRAMES)):
    for app in apps:
        print("cold", app, dump(run(app, 5)))
        for other in (6, 7):
            run(app, other)
        print("warm", app, dump(run(app, 5)))
"""

SHORT_APPS = ("bbc", "google", "todo", "camanjs", "lzma_js", "msn")
FRAMES_APPS = ("cnet", "w3schools", "paperjs", "goo_ne_jp", "amazon")
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
        fields = [line.split(" ", 2) for line in lines]
        apps = SHORT_APPS + FRAMES_APPS
        assert [(state, app) for state, app, _ in fields] == [
            (state, app) for app in apps for state in ("cold", "warm")
        ]
        for (_, app, cold), (_, _, warm) in zip(fields[::2], fields[1::2]):
            assert cold == warm, app
            assert f'"app":"{app}"' in cold
    first, second = outputs.values()
    assert first == second
