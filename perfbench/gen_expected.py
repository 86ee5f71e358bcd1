"""Record the expected output digest of every pool cell.

Usage (from the repository root)::

    python3 perfbench/gen_expected.py            # rewrite perfbench/expected.json
    python3 perfbench/gen_expected.py --sample   # print a few digests as JSON

A cell's digest is the SHA-256 of its canonical output bytes: the
``run_result_to_dict`` JSON of a session (``frames``, ``short``), or the
fleet result document a ``serve`` job's terminal ``result`` event
carries (byte-identical to ``repro fleet --json-out``).

The simulator is deterministic, so the table only changes when the
program's outputs do; regenerating it is a statement that they should.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

sys.path[:0] = [
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"),
]

from perfbench import population  # noqa: E402
from perfbench.population import digest, result_bytes  # noqa: E402

#: Seeds named for the record: ``tuning`` was used while the benchmark
#: was built; ``heldout`` is kept for checking later claims only.
SEEDS = {"tuning": 1, "heldout": 7919}

#: Cells the ``--sample`` mode prints (cross-process determinism checks).
SAMPLE = {"frames": (0, 100, 300), "short": (0, 1500, 3000), "serve": (0, 200)}


def cell_digest(op: population.Op) -> str:
    from repro import Session
    from repro.evaluation.runner import run_result_to_dict, run_workload_job
    from repro.fleet import Fleet
    from repro.serve.schemas import build_fleet_spec, normalize_job_payload

    if op.workload == "frames":
        return digest(result_bytes(run_workload_job(op.spec)))
    if op.workload == "short":
        return digest(result_bytes(
            run_result_to_dict(Session(**op.spec).run_micro_interaction())
        ))
    result = Fleet(build_fleet_spec(normalize_job_payload(op.spec))).run()
    return digest(result.to_json().encode("utf-8"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sample", action="store_true",
                        help="print the digests of a few cells instead of writing the table")
    args = parser.parse_args(argv)

    if args.sample:
        out = {}
        for workload, indices in SAMPLE.items():
            cells = population.pool(workload)
            for index in indices:
                op = cells[index]
                out[f"{workload}/{op.key}"] = cell_digest(op)
        print(json.dumps(out, sort_keys=True))
        return 0

    import numpy

    table: dict = {
        "about": "expected output digests per pool cell; see perfbench/gen_expected.py",
        "generated_with": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "no_numpy": bool(os.environ.get("REPRO_NO_NUMPY")),
        },
        "seeds": SEEDS,
        "populations": {
            workload: {
                str(seed): population.population_digest(workload, seed)
                for seed in SEEDS.values()
            }
            for workload in population.WORKLOADS
        },
    }
    for workload in population.WORKLOADS:
        cells = population.pool(workload)
        table[workload] = {}
        for index, op in enumerate(cells):
            table[workload][op.key] = cell_digest(op)
            if index % 100 == 99:
                print(f"{workload}: {index + 1}/{len(cells)}", file=sys.stderr)
    with open(population.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"wrote {population.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
