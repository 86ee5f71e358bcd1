"""Session throughput benchmark: sessions/second for one worker.

Measures how fast :func:`repro.evaluation.runner.run_workload` executes
the full-interaction workload at each tracing level:

* ``full``  — records retained and indexed (the interactive default);
* ``gated`` — category-gated, non-retaining log feeding the streaming
  metric folds (the fleet default: constant memory per session).

The checked-in ``BENCH_session_throughput.json`` at the repo root also
records two historical blocks: ``pre_pr_baseline`` — the same workload
measured on the scan path before indexed/gated tracing, streaming
folds, the demand-driven VSync source, tuple heap entries, and power
memoization landed — which is what the headline speedup is quoted
against, and ``sessions_per_s_batched``, the last measurement of the
since-deleted lockstep engine (no gain over one session at a time).

Usage::

    python benchmarks/bench_session_throughput.py                 # full run
    python benchmarks/bench_session_throughput.py --smoke         # CI-sized
    python benchmarks/bench_session_throughput.py --json-out F    # write JSON
    python benchmarks/bench_session_throughput.py --smoke \
        --check BENCH_session_throughput.json                     # CI gate

``--check`` exits non-zero when the measured gated throughput falls
more than ``--tolerance`` (default 20%) below the checked-in value —
the CI regression gate for the session hot path.  The reference is
first scaled by ``measured_full / checked_in_full`` from the same
process: both trace levels see identical ambient load, so the scale
factor cancels machine speed and the gate fires only when *gated*
regresses relative to *full* — not when the runner is simply slower
than the machine that produced the checked-in numbers.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.evaluation.runner import run_workload

APP = "cnet"
GOVERNOR = "greenweb"
TRACE_KIND = "full"


def run_sessions(trace_level: str, seeds: int) -> None:
    for seed in range(seeds):
        run_workload(
            APP,
            GOVERNOR,
            "imperceptible",
            trace_kind=TRACE_KIND,
            seed=seed,
            trace_level=trace_level,
        )


def measure(run, trace_level: str, seeds: int, rounds: int) -> float:
    """Best-of-``rounds`` sessions/second (best-of damps scheduler
    noise on shared CI runners)."""
    best = 0.0
    for _ in range(rounds):
        started = time.perf_counter()
        run(trace_level, seeds)
        elapsed = time.perf_counter() - started
        best = max(best, seeds / elapsed)
    return best


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run: fewer seeds and rounds",
    )
    parser.add_argument("--json-out", metavar="PATH", help="write results as JSON")
    parser.add_argument(
        "--check", metavar="BASELINE_JSON",
        help="fail if gated sessions/s regresses vs this checked-in file",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.20,
        help="allowed fractional regression for --check (default: 0.20)",
    )
    args = parser.parse_args(argv)

    seeds, rounds = (8, 3) if args.smoke else (12, 3)

    # Warm import/registry caches outside the timed region.
    run_sessions("gated", 1)

    results = {}
    for level in ("full", "gated"):
        rate = measure(run_sessions, level, seeds, rounds)
        results[level] = rate
        print(f"trace_level={level:6s} {rate:7.2f} sessions/s "
              f"({seeds} sessions x {rounds} rounds, best)")

    payload = {
        "benchmark": "session_throughput",
        "workload": {
            "app": APP,
            "governor": GOVERNOR,
            "trace_kind": TRACE_KIND,
            "seeds": seeds,
            "rounds": rounds,
            "smoke": args.smoke,
        },
        "sessions_per_s": {level: round(rate, 2) for level, rate in results.items()},
    }
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json_out}")

    if args.check:
        with open(args.check) as handle:
            baseline = json.load(handle)
        reference = baseline["sessions_per_s"]["gated"]
        # Normalise for machine speed: this runner's "full" throughput
        # vs the one that produced the checked-in file.  Both levels
        # run back to back here, so ambient slowdown cancels and the
        # gate measures gated-relative-to-full, not absolute speed.
        machine_scale = results["full"] / baseline["sessions_per_s"]["full"]
        floor = reference * machine_scale * (1.0 - args.tolerance)
        measured = results["gated"]
        print(f"regression gate: measured {measured:.2f} sessions/s vs "
              f"checked-in {reference:.2f} x machine scale "
              f"{machine_scale:.2f} (floor {floor:.2f})")
        if measured < floor:
            print("FAIL: gated session throughput regressed "
                  f">{args.tolerance:.0%} vs checked-in baseline "
                  "(machine-speed normalised)", file=sys.stderr)
            return 1
        print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
