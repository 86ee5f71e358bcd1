"""Session throughput benchmark: sessions/second for one worker.

Measures how fast sessions run, each built by ``build_app`` plus
:class:`repro.evaluation.runner.SessionExecution` (the work
:func:`~repro.evaluation.runner.run_workload` does), in three variants
(the first two keep their historical names):

* ``full``  — ``cnet:greenweb`` full interaction with a trace attached,
  every record retained and indexed (what trace export and analysis
  use);
* ``gated`` — the same cell with no trace: only the streaming folds
  observe the session (what every results-only API runs: constant
  memory per session);
* ``ondemand_bgload`` — ``camanjs:ondemand:bgload`` micro, results only:
  the sampler-tick and DVFS-switch path (1,800 ``ondemand`` ticks and
  1,225 applies in a seed-1 session), which the ``cnet:greenweb`` cell
  barely exercises (no sampler ticks, about 100 applies).  Its sessions
  are shorter than a calibration slice, so each timed sample runs
  several back to back (see :func:`measure`).

The checked-in ``BENCH_session_throughput.json`` at the repo root also
records three historical blocks: ``pre_pr_baseline`` — the same workload
measured on the scan path before indexed/gated tracing, streaming
folds, the demand-driven VSync source, tuple heap entries, and power
memoization landed — which is what the headline speedup is quoted
against; ``previous_harness``, the uncalibrated figures that speedup
compares it with; and ``sessions_per_s_batched``, the last measurement
of the since-deleted lockstep engine (no gain over one session at a
time).

Usage::

    python benchmarks/bench_session_throughput.py                 # full run
    python benchmarks/bench_session_throughput.py --smoke         # CI-sized
    python benchmarks/bench_session_throughput.py --json-out F    # write JSON
    python benchmarks/bench_session_throughput.py --smoke \
        --check BENCH_session_throughput.json                     # CI gate

``--check`` exits non-zero when the measured throughput of *any*
variant falls more than ``--tolerance`` (default 15%) below the
checked-in value.  Both sides are put on one scale by a fixed
pure-Python calibration loop (allocation, dict and string traffic,
none of the simulator's code) timed around every session: the reference
is multiplied by ``checked_in_calibration / measured_calibration``, so
a runner that is uniformly slower shifts the loop and the sessions
alike and passes, while a slowdown in the simulator itself, whichever
layer it is in and whichever variant it hits, fails.  The
calibration figure is recorded next to the throughput it was measured
with.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import statistics
import sys
import time

from repro.evaluation.runner import SessionExecution
from repro.workloads.registry import build_app

APP = "cnet"
GOVERNOR = "greenweb"
TRACE_KIND = "full"
#: Sessions per round: the smoke run keeps the same seeds (sessions
#: differ in cost by seed) and only does fewer rounds.
SEEDS = 12
#: variant name -> (app, governor, scenario, trace kind, whether the
#: session attaches a trace)
VARIANTS = {
    "full": (APP, GOVERNOR, "imperceptible", TRACE_KIND, True),
    "gated": (APP, GOVERNOR, "imperceptible", TRACE_KIND, False),
    "ondemand_bgload": ("camanjs", "ondemand", "bgload", "micro", False),
}


def calibration_slice(rows: int = 36_000) -> float:
    """Seconds one fixed interpreter-bound loop takes right now.

    It builds, walks and sorts a table of small dicts holding ints,
    strings and tuples: allocation, hashing, dict traffic and a key
    callback, the mix a session is made of, with none of the
    simulator's code.  It runs about as long as one session, so a burst
    of load from another tenant lands on both alike (a few-millisecond
    loop is hit or missed by such bursts and tracks sessions worse).
    """
    started = time.perf_counter()
    table = [{"n": i, "s": str(i), "t": (i, i + 1)} for i in range(rows)]
    total = 0
    for row in table:
        total += row["n"] + len(row["s"]) + row["t"][1]
    table.sort(key=lambda row: -row["n"])
    return time.perf_counter() - started


def run_session(variant: str, seed: int) -> None:
    app, governor, scenario, trace_kind, traced = VARIANTS[variant]
    execution = SessionExecution(
        build_app(app, seed), governor, scenario, trace_kind=trace_kind, seed=seed,
        trace=traced,
    )
    execution.run()
    execution.finish()


def measure(variant: str, rounds: int) -> tuple[float, list[float]]:
    """Calibrated cost of one variant: the seeds' session times in
    calibration slices, summed, plus every calibration point taken.

    A sample is one seed's session, repeated back to back until the
    sample lasts at least the calibration slice taken just before it (a
    session shorter than a slice runs as often as that takes; one
    longer runs once).  Its time per session is divided by the mean of
    the calibration points taken just before and after it, so a burst of
    load from another tenant slows both alike and cancels; a sample
    shorter than the slice would be hit or missed by such bursts on its
    own.  Per seed the best of ``rounds`` is kept (best-of damps what
    does not cancel).
    """
    best = [math.inf] * SEEDS
    points = [calibration_slice()]
    for _ in range(rounds):
        for seed in range(SEEDS):
            sessions = 0
            elapsed = 0.0
            while elapsed < points[-1]:
                gc.collect()  # every session starts from the same heap state
                started = time.perf_counter()
                run_session(variant, seed)
                elapsed += time.perf_counter() - started
                sessions += 1
            points.append(calibration_slice())
            per_session = elapsed / sessions
            best[seed] = min(best[seed], per_session / ((points[-2] + points[-1]) / 2))
    return sum(best), points


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run: fewer rounds over the same sessions",
    )
    parser.add_argument("--json-out", metavar="PATH", help="write results as JSON")
    parser.add_argument(
        "--check", metavar="BASELINE_JSON",
        help="fail if sessions/s of any variant regresses vs this checked-in file",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.15,
        help="allowed fractional regression for --check (default: 0.15)",
    )
    args = parser.parse_args(argv)

    rounds = 3 if args.smoke else 5

    # Warm import/registry caches outside the timed region.
    for variant in VARIANTS:
        run_session(variant, 0)

    costs = {}
    points = []
    for variant in VARIANTS:
        costs[variant], variant_points = measure(variant, rounds)
        points.extend(variant_points)
    # Quote every variant at the run's median calibration slice.
    slice_s = statistics.median(points)
    calibration_ms = slice_s * 1e3
    results = {variant: SEEDS / (cost * slice_s) for variant, cost in costs.items()}
    for variant, rate in results.items():
        print(f"{variant:15s} {rate:7.2f} sessions/s "
              f"({SEEDS} sessions x {rounds} rounds, best per session)")
    print(f"calibration slice {calibration_ms:.3f} ms (median)")

    payload = {
        "benchmark": "session_throughput",
        "workload": {
            "app": APP,
            "governor": GOVERNOR,
            "trace_kind": TRACE_KIND,
            "seeds": SEEDS,
            "rounds": rounds,
            "smoke": args.smoke,
        },
        "variants": {
            variant: dict(zip(("app", "governor", "scenario", "trace_kind", "traced"), cell))
            for variant, cell in VARIANTS.items()
        },
        "sessions_per_s": {variant: round(rate, 2) for variant, rate in results.items()},
        "calibration_slice_ms": round(calibration_ms, 4),
    }
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json_out}")

    if args.check:
        with open(args.check) as handle:
            baseline = json.load(handle)
        # Put the checked-in figures on this machine's scale: a host
        # whose calibration loop runs twice as fast should run twice as
        # many sessions per second.
        machine_scale = baseline["calibration_slice_ms"] / calibration_ms
        failed = []
        for variant in VARIANTS:
            reference = baseline["sessions_per_s"][variant]
            floor = reference * machine_scale * (1.0 - args.tolerance)
            measured = results[variant]
            print(f"regression gate {variant}: measured {measured:.2f} sessions/s vs "
                  f"checked-in {reference:.2f} x machine scale "
                  f"{machine_scale:.3f} (floor {floor:.2f})")
            if measured < floor:
                failed.append(variant)
        if failed:
            print(f"FAIL: session throughput ({', '.join(failed)}) regressed "
                  f">{args.tolerance:.0%} vs checked-in baseline "
                  "(calibration-loop normalised)", file=sys.stderr)
            return 1
        print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
