"""Regenerate the differential-parity golden fingerprints.

Runs every (application x builtin governor x golden leg) cell, plus
the dynamic-scenario cells, and records a SHA-256 over the canonical
JSON of each session's result dict.  ``gated`` cells run through
:func:`repro.evaluation.runner.run_workload_job`, with no trace;
``full`` cells build the same session through ``SessionExecution`` with
a trace attached.
The differential suite (``tests/differential/test_batch_parity.py``
and ``test_scenario_dynamics.py``) asserts every cell reproduces these
bytes.

Run from the repo root after any intentional result-affecting change::

    PYTHONPATH=src python scripts/gen_parity_fingerprints.py
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.evaluation.runner import (  # noqa: E402
    GOVERNORS,
    SessionExecution,
    run_result_to_dict,
    run_workload_job,
)
from repro.scenarios import SCENARIOS  # noqa: E402
from repro.workloads.registry import APP_NAMES, build_app  # noqa: E402

OUT = os.path.join(os.path.dirname(__file__), "..", "tests", "data",
                   "batch_parity_fingerprints.json")

#: The sweep's fixed workload knobs (mirrored by the parity test).
TRACE_KIND = "micro"
SEED = 0
SETTLE_S = 4.0
#: The golden legs: ``full`` runs with a trace attached, ``gated``
#: without one (the key names predate the single trace/no-trace switch).
LEGS = ("full", "gated")

#: Dynamic-scenario cells (app, governor, scenario spec), swept on both
#: golden legs into the separate ``dynamic_cells`` section — the
#: static ``cells`` sweep above pins the bare-scenario bytes and must
#: never change when these do.  Parameters are chosen so the dynamics
#: actually engage on the micro traces: paperjs's animation load trips
#: the thermal cap at ``hot_load=0.2``, and a 600 %/min drain crosses
#: the 60 % relax threshold mid-run.  Keys are ``:``-joined — safe
#: because the spec grammar rejects ``:`` in every field.
DYNAMIC_CELLS = (
    ("paperjs", "perf",
     "thermal(cap_mhz=1100,trip_ms=200,hysteresis_ms=2000,hot_load=0.2)"),
    ("paperjs", "greenweb",
     "battery(start_pct=90,drain_pct_per_min=600,relax_at_pct=60)"),
)


def job_fingerprint(result: dict) -> str:
    """Canonical-JSON SHA-256 of one session result."""
    import hashlib

    blob = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run_cell(job: dict, leg: str) -> dict:
    """One cell's result dict on golden leg ``leg``."""
    if leg == "gated":
        return run_workload_job(job)
    execution = SessionExecution(
        build_app(job["app"], SEED), job["governor"],
        job.get("scenario", "imperceptible"), trace_kind=TRACE_KIND, seed=SEED,
        settle_s=SETTLE_S, trace=True,
    )
    execution.run()
    return run_result_to_dict(execution.finish())


def main() -> int:
    cells = {}
    for app in APP_NAMES:
        for governor in GOVERNORS:
            for leg in LEGS:
                result = run_cell({
                    "app": app,
                    "governor": governor,
                    "trace_kind": TRACE_KIND,
                    "seed": SEED,
                    "settle_s": SETTLE_S,
                }, leg)
                cells[f"{app}:{governor}:{leg}"] = job_fingerprint(result)
                print(f"{app}:{governor}:{leg}", cells[f"{app}:{governor}:{leg}"][:16])
    dynamic_cells = {}
    for app, governor, scenario in DYNAMIC_CELLS:
        canonical_scenario = SCENARIOS.normalize(scenario).canonical()
        for leg in LEGS:
            result = run_cell({
                "app": app,
                "governor": governor,
                "scenario": scenario,
                "trace_kind": TRACE_KIND,
                "seed": SEED,
                "settle_s": SETTLE_S,
            }, leg)
            key = f"{app}:{governor}:{canonical_scenario}:{leg}"
            dynamic_cells[key] = job_fingerprint(result)
            print(key, dynamic_cells[key][:16])
    payload = {
        "workload": {
            "trace_kind": TRACE_KIND,
            "seed": SEED,
            "settle_s": SETTLE_S,
            "scenario": "imperceptible",
        },
        "cells": cells,
        "dynamic_cells": dynamic_cells,
    }
    with open(OUT, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {OUT} ({len(cells)} cells, {len(dynamic_cells)} dynamic)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
