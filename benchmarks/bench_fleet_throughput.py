"""Fleet throughput: sessions/second as worker processes scale.

Runs the same 24-session population at ``--jobs`` 1, 2, and 4 and
reports wall-clock throughput plus the parallel speedup over the
single-process baseline.  On a single-core container the speedup
hovers around 1x — the point of the series is to expose process-pool
overhead and to track regressions in the shard pipeline, not to brag
about cores the machine does not have.

The series is host wall-clock time, so it is printed, not recorded
under ``benchmarks/results/``: those files hold deterministic figures
that a rerun must reproduce byte for byte.
"""

import time

from conftest import run_once

from repro.fleet import Fleet, FleetSpec, parse_mix

SESSIONS = 24
JOBS = (1, 2, 4)
MIX = "todo:greenweb,cnet:perf,amazon:greenweb:usable"


def _throughputs():
    spec_kwargs = dict(sessions=SESSIONS, seed=7, mix=parse_mix(MIX), shard_size=4)
    series = []
    baseline = None
    for jobs in JOBS:
        started = time.perf_counter()
        result = Fleet(FleetSpec(**spec_kwargs), jobs=jobs).run()
        elapsed = time.perf_counter() - started
        assert result.ok, f"fleet run failed at jobs={jobs}: {result.failures}"
        rate = result.sessions_completed / elapsed
        baseline = baseline or rate
        series.append((jobs, elapsed, rate, rate / baseline))
    return series


def test_fleet_throughput(benchmark):
    series = run_once(benchmark, _throughputs)

    lines = [f"Fleet throughput: {SESSIONS} sessions, mix {MIX}"]
    for jobs, elapsed, rate, speedup in series:
        lines.append(
            f"  jobs={jobs}  {elapsed:6.2f} s  {rate:7.1f} sessions/s  "
            f"speedup x{speedup:.2f}"
        )
    print("\n" + "\n".join(lines))

    # Sanity floor: even with pool overhead the engine must stay usable.
    for jobs, _elapsed, rate, _speedup in series:
        assert rate > 1.0, f"jobs={jobs} ran below 1 session/s"
