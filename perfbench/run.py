"""The repository benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload frames --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20   # every workload's report

Workloads (each a closed loop with one client):

* ``frames`` — full-interaction traces of the five frame-heavy apps
  under greenweb/perf/interactive, in process through
  ``run_workload_job`` at ``trace_level=gated``.  Thousands of kernel
  events per session: the execution spine dominates.
* ``short`` — micro-benchmark traces of the six light apps under
  greenweb/perf and imperceptible/usable through the ``Session`` facade
  (``trace_level=full``).  Tens of events per session: setup dominates.
* ``serve`` — one client of an in-process ``repro serve`` daemon
  (``nproc`` workers, one lane) posting 8-session fleet jobs with
  ``shard_size`` 2 over ebs/ondemand/greenweb/perf and the dynamic
  scenarios, reading each job's event stream to its ``result``.

``--trace 0`` measures the end-to-end metrics with no span wrappers
installed.  ``--trace 1`` runs half the time untraced and half traced
and reports the per-layer metrics, including ``trace_overhead``.  Every
operation's output is hashed and compared with ``expected.json``; a
mismatch, a raised session, a non-2xx response or a job that does not
end in ``result`` counts as failed.

The human-readable report goes to stdout first; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A fuller record, with a sample of raw spans, is written under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import drivers, population, stats  # noqa: E402
from perfbench.layers import (  # noqa: E402
    SESSION_LAYERS,
    Patches,
    ServeTracer,
    Tracer,
    find_installed,
    install_session_layers,
    session_layer_names,
)

#: (name, unit): reported by every workload with ``--trace 0``.  An
#: operation is a session on frames/short and a job on serve.
END_TO_END = (
    ("sessions_per_s", "sessions/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("sim_events_per_s", "events/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Per-event layers, which also report calls per session.
PER_EVENT = (
    "hardware.execution.submit", "browser.dispatch_event", "core.predictor.predict",
    "core.components.feedback", "hardware.dvfs.request", "hardware.energy.on_power_change",
    "scenarios.target", "sim.tracing.emit",
)
#: Layers whose metric is named ``self_us`` (their children are other layers).
SELF_NAMED = ("sim.kernel.run", "evaluation.setup")
#: Longest stretch of operations between two calibration slices.
CALIBRATE_EVERY_S = 0.05
#: Fresh-interpreter launches per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
SERVE_MS = (
    "serve.post", "serve.queue_wait", "serve.settle", "serve.sse_tail", "fleet.run",
    "fleet.shard", "fleet.ipc", "fleet.checkpoint.record", "fleet.aggregate.merge",
)
COUNTERS = (
    ("sim.kernel.events", "count"), ("sim.kernel.events_per_frame", "ratio"),
    ("browser.frames", "count"), ("browser.inputs", "count"),
    ("hardware.dvfs.switches", "count"), ("core.runtime.predictions", "count"),
)


def layer_metric(layer: str) -> str:
    return f"{layer}.self_us" if layer in SELF_NAMED else f"{layer}.us"


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every ``--trace 1`` metric, on every workload.
    Session layers are per session; serve and fleet layers are per job
    and read 0 off the serve path."""
    out = []
    for layer, _group, _targets in SESSION_LAYERS:
        out.append((layer_metric(layer), "us"))
        if layer in PER_EVENT:
            out.append((f"{layer}.calls", "count"))
    out += [
        ("hardware.dvfs.switch_ratio", "ratio"),
        ("unattributed.us", "us"),
        ("op.us", "us"),
        ("layers.setup.share", "ratio"),
        ("layers.run.share", "ratio"),
        ("layers.attributed.share", "ratio"),
        ("trace_overhead", "ratio"),
    ]
    out += list(COUNTERS)
    out += [(f"{layer}.ms", "ms") for layer in SERVE_MS]
    out.append(("fleet.retries", "count"))
    out.append(("serve.sse_reconnects", "count"))
    return out


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
class Phase:
    """Outcomes of one closed-loop stretch of operations."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.keys: list[str] = []
        self.sessions = 0
        self.events = 0
        self.attempted = 0
        self.failed = 0
        self.retries = 0
        #: serve event streams reopened because they ended early
        self.reconnects = 0
        self.errors: list[str] = []
        #: per op: the part of its latency spent computing (rescaled)
        self.compute: list[float] = []
        #: per op: the calibration point in force while it ran
        self.calibration: list[float] = []
        self.counts: dict[str, int] = {}

    @property
    def busy_s(self) -> float:
        """Host seconds spent inside program calls."""
        return sum(self.latencies)

    def scaled(self) -> list[float]:
        """Each op's host seconds with its compute part on the reference
        scale (see :func:`perfbench.stats.to_reference`); the rest (pool
        IPC, fsync, waits between threads) is kept as measured."""
        return [
            seconds - compute + stats.to_reference(compute, point)
            for seconds, compute, point in zip(self.latencies, self.compute, self.calibration)
        ]

    def sessions_per_s(self) -> float:
        return self.sessions / sum(self.scaled())


def run_phase(driver, ops, seconds: float, min_ops: int, probe) -> Phase:
    """Run operations back to back for ``seconds`` (and ``min_ops``),
    stopping only at a block end."""
    phase = Phase()
    previous = [stats.calibration_point()]

    def calibrate() -> None:
        # Ops since the last point get the mean of the two points around them.
        now = stats.calibration_point()
        pending = len(phase.latencies) - len(phase.calibration)
        phase.calibration.extend([(previous[0] + now) / 2] * pending)
        previous[0] = now

    counts_before = probe.snapshot()
    reconnects_before = getattr(driver, "reconnects", 0)
    start = time.perf_counter()
    deadline = start + seconds
    hard_stop = start + max(2.5 * seconds, seconds + 20.0)
    while True:
        op = next(ops)
        outcome = driver.run(op)
        phase.attempted += 1
        phase.latencies.append(outcome.seconds)
        phase.compute.append(outcome.seconds if outcome.compute_s is None else outcome.compute_s)
        phase.keys.append(op.key)
        phase.retries += outcome.retries
        if outcome.ok:
            phase.sessions += outcome.sessions
        else:
            phase.failed += 1
            if len(phase.errors) < 20:
                phase.errors.append(f"{op.key}: {outcome.error}")
        if op.block_end or sum(phase.latencies[len(phase.calibration):]) >= CALIBRATE_EVERY_S:
            calibrate()
        now = time.perf_counter()
        if now >= hard_stop:
            break
        if now >= deadline and op.block_end and phase.attempted >= min_ops:
            break
    calibrate()
    phase.reconnects = getattr(driver, "reconnects", 0) - reconnects_before
    after = probe.snapshot()
    phase.counts = {key: after[key] - counts_before[key] for key in after}
    phase.events = phase.counts["events"]
    return phase


def measure_setup(workload: str) -> list[float]:
    """Seconds from launching a fresh interpreter to ready-to-time,
    :data:`SETUP_SAMPLES` times (see :func:`perfbench.drivers.prepare`)."""
    probe_script = os.path.join(ROOT, "perfbench", "setup_probe.py")
    out = []
    for _ in range(SETUP_SAMPLES):
        before = stats.calibration_point(5)
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, probe_script, workload],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            line = child.stdout.readline()
            ready = time.perf_counter()
            _, stderr = child.communicate(timeout=60)
        except BaseException:
            child.kill()
            child.wait()
            raise
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"setup probe failed ({child.returncode}): {stderr.strip()}")
        after = stats.calibration_point(5)
        out.append(stats.to_reference(ready - start, (before + after) / 2))
    return out


def end_to_end(phase: Phase, setup: list[float], rss_mb: float) -> dict[str, float]:
    scaled = phase.scaled()
    return {
        "sessions_per_s": phase.sessions / sum(scaled),
        "latency_ms_p50": statistics.median(scaled) * 1e3,
        "latency_ms_p90": stats.percentile(scaled, 0.9) * 1e3,
        "sim_events_per_s": phase.events / sum(scaled),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb,
    }


def session_layer_values(totals: dict, sessions: int, counts: dict) -> dict[str, float]:
    """Per-session layer metrics from span totals over ``sessions``."""
    values = {}
    for layer, _group, _targets in SESSION_LAYERS:
        ns, calls = totals.get(layer, (0, 0))
        values[layer_metric(layer)] = ns / sessions / 1e3
        if layer in PER_EVENT:
            values[f"{layer}.calls"] = calls / sessions
    requests = totals.get("hardware.dvfs.request", (0, 0))[1]
    values["hardware.dvfs.switch_ratio"] = counts["switches"] / requests if requests else 0.0
    per = max(counts["sessions"], 1)
    values["sim.kernel.events"] = counts["events"] / per
    values["sim.kernel.events_per_frame"] = counts["events"] / max(counts["frames"], 1)
    values["browser.frames"] = counts["frames"] / per
    values["browser.inputs"] = counts["inputs"] / per
    values["hardware.dvfs.switches"] = counts["switches"] / per
    values["core.runtime.predictions"] = counts["predictions"] / per
    return values


def group_shares(totals: dict, total_ns: float) -> dict[str, float]:
    shares = {}
    for group in ("setup", "run"):
        ns = sum(totals.get(layer, (0, 0))[0] for layer, g, _ in SESSION_LAYERS if g == group)
        shares[f"layers.{group}.share"] = ns / total_ns
    return shares


def traced_in_process(driver, ops, seconds: float, probe):
    """Half untraced, half traced; returns (metrics, phases, tracer)."""
    untraced = run_phase(driver, ops, seconds / 2, 20, probe)
    tracer = Tracer(session_layer_names() + ["session"], raw_limit=5000)
    patches = Patches()
    install_session_layers(tracer, patches)
    driver.around = tracer.run
    try:
        traced = run_phase(driver, ops, seconds / 2, 20, probe)
    finally:
        driver.around = drivers.direct
        patches.undo()
    totals = tracer.totals()
    sessions = traced.attempted
    total_ns = sum(ns for ns, _calls in totals.values())
    values = session_layer_values(totals, sessions, traced.counts)
    root_ns = totals["session"][0]
    values.update(group_shares(totals, total_ns))
    values["unattributed.us"] = root_ns / sessions / 1e3
    values["op.us"] = total_ns / sessions / 1e3
    values["layers.attributed.share"] = 1.0 - root_ns / total_ns
    values["trace_overhead"] = untraced.sessions_per_s() / traced.sessions_per_s()
    for layer in SERVE_MS:
        values[f"{layer}.ms"] = 0.0
    values["fleet.retries"] = 0.0
    values["serve.sse_reconnects"] = 0.0
    return values, (untraced, traced), tracer


def traced_serve(driver, ops, seconds: float, probe):
    untraced = run_phase(driver, ops, seconds / 2, 20, probe)
    serve = ServeTracer(probe)
    client: dict[str, float] = {"serve.post": 0.0, "serve.sse_tail": 0.0}

    def on_job(job_id: str, post_s: float, received: float) -> None:
        client["serve.post"] += post_s
        settled = serve.settled_at.pop(job_id, None)
        if settled is not None:
            client["serve.sse_tail"] += received - settled

    serve.install()
    driver.on_job = on_job
    try:
        traced = run_phase(driver, ops, seconds / 2, 20, probe)
    finally:
        driver.on_job = None
        serve.uninstall()
    totals = serve.tracer.totals()
    jobs = traced.attempted
    worker_sessions = max(traced.counts["sessions"], 1)
    values = session_layer_values(totals, worker_sessions, traced.counts)
    values.update(group_shares(totals, totals["fleet.worker"][0]))
    per_job = {layer: totals.get(layer, (0, 0))[0] / 1e9 for layer in SERVE_MS}
    per_job.update(client)
    for layer in SERVE_MS:
        values[f"{layer}.ms"] = per_job[layer] / jobs * 1e3
    critical = sum(per_job[layer] for layer in (
        "serve.post", "serve.queue_wait", "fleet.run", "serve.settle", "serve.sse_tail"))
    unattributed_s = max(traced.busy_s - critical, 0.0)
    values["unattributed.us"] = unattributed_s / jobs * 1e6
    values["op.us"] = traced.busy_s / jobs * 1e6
    values["layers.attributed.share"] = 1.0 - unattributed_s / traced.busy_s
    values["trace_overhead"] = untraced.sessions_per_s() / traced.sessions_per_s()
    values["fleet.retries"] = traced.retries / jobs
    values["serve.sse_reconnects"] = traced.reconnects / jobs
    return values, (untraced, traced), serve.tracer


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def report(args, metrics: dict, units: dict, phases, setup, stamp) -> list[str]:
    lines = [f"perfbench workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds} trace={args.trace}"]
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    for phase in phases:
        lines.append(
            f"  phase: {phase.attempted} ops, {phase.sessions} sessions, "
            f"{phase.busy_s:.3f} busy s, {phase.failed} failed, "
            f"{phase.retries} shard retries, {phase.reconnects} stream reconnects"
        )
    lines.append(f"  failed_frac = {failed / attempted:.6f} ratio ({failed}/{attempted})")
    lines.append(f"  digests: {'all match' if failed == 0 else f'{failed} mismatched or failed'}"
                 " (expected.json)")
    samples = {"setup_s": len(setup), "peak_rss_mb": 1}
    for name, value in metrics.items():
        count = samples.get(name, phases[-1].attempted)
        lines.append(f"  {name} = {value:.6g} {units[name]} (n={count})")
    counts = phases[-1].counts
    if counts.get("sessions"):
        per = counts["sessions"]
        lines.append("  counters per session: " + ", ".join(
            f"{key}={counts[key] / per:.4g}" for key in ("events", "frames", "inputs",
                                                         "switches", "predictions")))
    lines.append(
        f"  host: nproc={stamp['nproc']} python={stamp['python']} numpy={stamp['numpy']} "
        f"calibration slice ms before={stamp['calibration_slice_ms_before']:.3f} "
        f"after={stamp['calibration_slice_ms_after']:.3f}"
    )
    lines.append("  accuracy: unvalidated - the repository holds no hardware reference "
                 "data, so no error figure is reported")
    last = phases[-1]
    lines.append(
        f"  unscaled host time: sessions_per_s={last.sessions / last.busy_s:.6g} "
        f"latency_ms_p50={statistics.median(last.latencies) * 1e3:.6g}; calibration slice "
        f"median {statistics.median(last.calibration) * 1e3:.4g} ms "
        f"(reference {stats.REFERENCE_SLICE_S * 1e3:g} ms)"
    )
    for phase in phases:
        for error in phase.errors:
            lines.append(f"  FAILED {error}")
    return lines


def run_all(args) -> int:
    """Run every workload in its own interpreter and print each report
    (without its JSON line); exit 1 if any run failed or was incorrect."""
    status = 0
    for workload in population.WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            print(f"{workload}: FAILED (exit {done.returncode}) {done.stderr.strip()}")
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*population.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program source at {os.path.join(ROOT, 'src', 'repro')}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    expected = population.load_expected()
    stamp = stats.host_stamp()
    stamp["calibration_slice_ms_before"] = stats.calibration_point(5) * 1e3
    setup = measure_setup(args.workload)
    driver, probe, patches = drivers.prepare(args.workload, expected)
    ops = population.population(args.workload, args.seed)
    tracer = None
    try:
        if args.trace == 0:
            phase = run_phase(driver, ops, args.seconds, stats.min_samples(0.9), probe)
            phases = (phase,)
            metrics = end_to_end(phase, setup, driver.peak_rss_mb())
            units = dict(END_TO_END)
        else:
            traced = traced_serve if args.workload == "serve" else traced_in_process
            metrics, phases, tracer = traced(driver, ops, args.seconds, probe)
            units = dict(per_layer_metrics())
            metrics = {name: metrics[name] for name in units}
    finally:
        driver.close()
        patches.undo()
    leftover = find_installed()
    if leftover:
        raise RuntimeError(f"benchmark wrappers left installed: {leftover}")
    stamp["calibration_slice_ms_after"] = stats.calibration_point(5) * 1e3

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    record = {
        "args": vars(args),
        "host": stamp,
        "setup_samples_s": setup,
        "metrics": metrics,
        "phases": [
            {"attempted": p.attempted, "failed": p.failed, "sessions": p.sessions,
             "busy_s": p.busy_s, "counts": p.counts, "errors": p.errors,
             "ops": [list(op) for op in zip(p.keys, p.latencies, p.compute,
                                             p.calibration, p.scaled())]}
            for p in phases
        ],
    }
    if tracer is not None:
        record["layer_totals_ns"] = tracer.totals()
        record["raw_spans"] = tracer.raw
    os.makedirs(drivers.OUT_DIR, exist_ok=True)
    out_path = os.path.join(
        drivers.OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)

    for line in report(args, metrics, units, phases, setup, stamp):
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
