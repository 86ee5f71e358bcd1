"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``apps`` — list the twelve Table 3 applications with their metadata.
* ``run APP`` — run one (application, governor, scenario) cell and
  print the scorecard; ``--export-trace out.json`` additionally writes
  a Chrome-trace timeline loadable in chrome://tracing or Perfetto.
* ``figures`` — regenerate the paper's figures/tables (all, or a
  selection) as text, with ASCII bar charts for the energy figures;
  ``--jobs N`` fans the experiment matrix out over N worker processes.
* ``fleet`` — simulate a *population* of sessions (a weighted mix of
  apps x governors x scenarios) in parallel shards with streaming
  aggregation; ``--json-out`` writes the deterministic summary and
  ``--progress`` draws a live stderr heartbeat.
* ``serve`` — run the fleet-as-a-service HTTP daemon: submit jobs over
  ``POST /jobs``, stream live aggregates over SSE, browse HTML
  dashboards; in-flight jobs resume after a restart.
* ``checkpoint inspect PATH`` — describe a fleet checkpoint journal
  (fingerprint, completed shards, torn-tail status) without running
  anything.
* ``autogreen APP`` — run AutoGreen on the unannotated application and
  print the generated GreenWeb CSS.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time

from repro.errors import ReproError
from repro.evaluation.runner import run_workload
from repro.ioutil import probe_writable, write_file_atomic
from repro.policies import POLICIES
from repro.scenarios import SCENARIOS
from repro.sim.tracing import TRACE_LEVELS
from repro.workloads.registry import APP_NAMES, build_app, table3_specs


def _cmd_apps(_args: argparse.Namespace) -> int:
    print(f"{'name':12s} {'interaction':12s} {'QoS type':11s} {'target':16s} "
          f"{'events':>6s} {'time':>5s} {'annot%':>7s}")
    for spec in table3_specs():
        print(
            f"{spec.name:12s} {str(spec.micro_interaction):12s} "
            f"{str(spec.micro_qos_type):11s} {spec.micro_target_label:16s} "
            f"{spec.full_events:6d} {spec.full_duration_s:4d}s {spec.annotation_pct:6.1f}%"
        )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.export_trace:
        # Validate the output path before the simulation, not after:
        # a typo'd path must fail in milliseconds, not minutes.
        probe_writable(args.export_trace, "--export-trace")
    result = run_workload(
        args.app,
        args.governor,
        args.scenario,
        trace_kind=args.trace,
        seed=args.seed,
        trace_level=args.trace_level,
    )
    print(f"app:            {result.app} ({result.trace_kind} trace, seed {args.seed})")
    print(f"governor:       {result.governor} / {result.scenario}")
    print(f"duration:       {result.duration_s:.1f} s simulated")
    print(f"inputs/frames:  {result.inputs} / {result.frames} "
          f"({result.skipped_vsyncs} skipped vsyncs)")
    print(f"energy:         {result.energy_j:.3f} J total, "
          f"{result.active_energy_j * 1000:.1f} mJ in interaction windows")
    print(f"QoS violations: {result.mean_violation_pct:.2f}% mean over "
          f"{result.annotated_events} annotated events")
    print(f"switching:      {result.freq_switches} frequency, "
          f"{result.migrations} migrations")
    residency = sorted(
        result.config_residency.items(), key=lambda kv: kv[1], reverse=True
    )
    shown = ", ".join(f"{config}={fraction:.0%}" for config, fraction in residency[:4])
    print(f"residency:      {shown}")
    if result.runtime_stats:
        print(f"runtime:        {result.runtime_stats}")

    if args.export_trace:
        count = _export_trace(args)
        print(f"chrome trace:   {args.export_trace} ({count} events)")
    return 0


def _prepared_session(args: argparse.Namespace):
    """The ``APP --governor --scenario --trace --seed`` cell as a
    :class:`~repro.evaluation.runner.SessionExecution` that retains its
    whole trace, ready to ``run()``."""
    from repro.evaluation.runner import SessionExecution

    spec = POLICIES.normalize(args.governor)
    return SessionExecution(
        build_app(args.app, args.seed), spec.label(), args.scenario, args.trace,
        args.seed, 4.0, "full",
        lambda platform, registry, scenario: POLICIES.build(
            spec, platform, registry, scenario
        ),
    )


def _export_trace(args: argparse.Namespace) -> int:
    """Re-run with trace retention and export a Chrome-trace JSON."""
    from repro.sim.trace_export import export_chrome_trace

    execution = _prepared_session(args)
    execution.platform.record_task_spans = True  # per-thread timeline tracks
    execution.run()
    return export_chrome_trace(execution.platform.trace, args.export_trace)


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.errors import EvaluationError
    from repro.evaluation import experiments
    from repro.evaluation import report

    if args.jobs < 1:
        raise EvaluationError(f"figures need >= 1 job, got {args.jobs}")
    which = set(args.only) if args.only else {
        "table1", "fig9", "fig10", "fig11", "fig12", "table3"
    }
    apps = args.apps or None
    seed = args.seed
    jobs = args.jobs

    if "table1" in which:
        print(report.render_table1(), end="\n\n")
    if "fig9" in which:
        rows9 = experiments.run_fig9_microbenchmarks(apps=apps, seed=seed, jobs=jobs)
        print(report.render_fig9(rows9), end="\n\n")
        print("GreenWeb-I energy (normalised to Perf, lower is better):")
        print(report.ascii_bars(
            [r.app for r in rows9],
            [r.greenweb_i_energy_norm_pct for r in rows9],
            max_value=100.0,
        ), end="\n\n")
    rows10 = None
    if which & {"fig10", "fig11", "fig12"}:
        rows10 = experiments.run_fig10_full_interactions(apps=apps, seed=seed, jobs=jobs)
    if "fig10" in which:
        print(report.render_fig10(rows10), end="\n\n")
        print("GreenWeb-U energy (normalised to Perf, lower is better):")
        print(report.ascii_bars(
            [r.app for r in rows10],
            [r.greenweb_u_energy_norm_pct for r in rows10],
            max_value=100.0,
        ), end="\n\n")
    if "fig11" in which:
        rows11 = experiments.run_fig11_distribution(fig10_rows=rows10)
        print(report.render_fig11(rows11), end="\n\n")
    if "fig12" in which:
        rows12 = experiments.run_fig12_switching(fig10_rows=rows10)
        print(report.render_fig12(rows12), end="\n\n")
    if "table3" in which:
        print(report.render_table3(experiments.run_table3_characteristics()), end="\n\n")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    """Frame-timeline analysis of one run (p50/p95/p99, FPS, jank)."""
    from repro.evaluation.analysis import fps_over_time
    from repro.evaluation.folds import FrameTimelineFold
    from repro.evaluation.report import ascii_bars

    execution = _prepared_session(args)
    execution.run()
    platform = execution.platform

    stats = FrameTimelineFold().replay(platform.trace).stats()
    print(f"frame timeline for {args.app} / {args.governor} / {args.scenario}:")
    print(f"  frames:      {stats.frame_count} over {stats.duration_s:.1f} s "
          f"({stats.mean_fps:.1f} fps mean)")
    print(f"  latency:     p50={stats.latency_p50_us/1000:.1f} ms  "
          f"p95={stats.latency_p95_us/1000:.1f} ms  "
          f"p99={stats.latency_p99_us/1000:.1f} ms  "
          f"max={stats.latency_max_us/1000:.1f} ms")
    print(f"  jank:        {stats.jank_count} frames >= 2 vsync periods "
          f"({stats.jank_rate:.1%})")
    series = fps_over_time(platform.trace, bucket_ms=1000)
    if series:
        print("\nfps over time (1 s buckets):")
        print(ascii_bars(
            [f"{t:5.0f}s" for t, _ in series],
            [fps for _, fps in series],
            unit=" fps",
            max_value=60.0,
        ))
    return 0


class _ProgressLine:
    """The ``fleet --progress`` stderr heartbeat.

    One ``\\r``-overwritten line per accepted shard: shards and sessions
    done, throughput, and a naive remaining-work / current-rate ETA.
    It writes only to stderr so ``--json-out``/stdout consumers never
    see it, and clears itself before the summary prints.
    """

    def __init__(self, sessions_total: int):
        self.sessions_total = sessions_total
        self.sessions_done = 0
        self.started = time.monotonic()
        self._last_width = 0

    def on_shard(self, partial: dict, done: int, total: int) -> None:
        self.sessions_done += partial["sessions"]
        elapsed = time.monotonic() - self.started
        rate = self.sessions_done / elapsed if elapsed > 0 else 0.0
        remaining = max(self.sessions_total - self.sessions_done, 0)
        eta = f"{remaining / rate:4.0f} s" if rate > 0 else "   ? s"
        line = (
            f"shards {done}/{total}  sessions "
            f"{self.sessions_done}/{self.sessions_total}  "
            f"{rate:5.1f}/s  eta {eta}"
        )
        # Pad over the previous line so a shrinking line leaves no tail.
        pad = " " * max(self._last_width - len(line), 0)
        print(f"\r{line}{pad}", end="", file=sys.stderr, flush=True)
        self._last_width = len(line)

    def clear(self) -> None:
        if self._last_width:
            print("\r" + " " * self._last_width + "\r", end="",
                  file=sys.stderr, flush=True)
            self._last_width = 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    """Simulate a population of sessions and print/write the aggregate.

    Exit codes: 0 on clean completion, 1 when shards exhausted their
    retry budget, 2 on a usage error (bad spec, unwritable path,
    checkpoint fingerprint mismatch), and 128+signum (130 for SIGINT,
    143 for SIGTERM) when a signal stopped the run gracefully.
    """
    from repro.errors import EvaluationError
    from repro.fleet import Fleet, FleetSpec, default_mix, parse_mix

    if args.resume and not args.checkpoint:
        raise EvaluationError("--resume requires --checkpoint PATH")
    # Test-only fault injection for the checkpoint/signal smoke tests:
    # sessions are too fast (~15 ms) to interrupt a real fleet mid-run
    # deterministically, so CI hangs a shard on purpose instead.
    inject = os.environ.get("REPRO_FLEET_INJECT_CRASH")
    spec = FleetSpec(
        sessions=args.sessions,
        seed=args.seed,
        mix=parse_mix(args.mix) if args.mix else default_mix(),
        shard_size=args.shard_size,
        max_retries=args.max_retries,
        shard_timeout_s=args.shard_timeout,
        trace_level=args.trace_level,
        inject_crash=json.loads(inject) if inject else None,
    )
    if args.json_out:
        # Fail fast on an unwritable output path before burning minutes
        # of simulation — without creating the file, so a run that
        # never reaches the final write leaves no empty artifact that
        # looks like a truncated result.
        probe_writable(args.json_out, "--json-out")

    progress = None
    if args.progress == "always" or (
        args.progress == "auto" and sys.stderr.isatty()
    ):
        progress = _ProgressLine(spec.sessions)
    try:
        result = Fleet(
            spec,
            jobs=args.jobs,
            checkpoint=args.checkpoint,
            resume=args.resume,
            on_shard=progress.on_shard if progress else None,
        ).run()
    finally:
        if progress:
            progress.clear()
    aggregate = result.aggregate

    print(f"fleet:       {result.sessions} sessions, seed {result.seed}, "
          f"{result.shards_total} shards x <= {result.shard_size}, "
          f"{result.jobs} job(s)")
    if result.resumed_shards:
        print(f"resumed:     {result.resumed_shards} shard(s) reloaded from "
              f"{args.checkpoint}")
    rate = result.sessions_completed / result.elapsed_s if result.elapsed_s else 0.0
    print(f"completed:   {result.sessions_completed}/{result.sessions} sessions "
          f"in {result.elapsed_s:.1f} s wall ({rate:.1f} sessions/s), "
          f"{result.retries} retries, {len(result.failures)} failed shards")
    for failure in result.failures:
        print(f"  FAILED shard {failure.shard} after {failure.attempts} "
              f"attempt(s): {failure.error}")
    energy = aggregate.energy_j
    violation = aggregate.violation_pct
    if aggregate.sessions:
        print(f"energy:      {energy.sum:.2f} J total, "
              f"{energy.mean:.3f} J/session [{energy.min:.3f}, {energy.max:.3f}]")
        print(f"violations:  {violation.mean:.2f}% mean/session "
              f"[{violation.min:.2f}, {violation.max:.2f}]")
        print(f"throughput:  {aggregate.inputs} inputs, {aggregate.frames} frames")
        print("by governor:")
        for name in sorted(aggregate.by_governor):
            group = aggregate.by_governor[name]
            print(f"  {name:12s} {group.sessions:6d} sessions  "
                  f"{group.energy_j.mean:8.3f} J/session  "
                  f"{group.violation_pct.mean:6.2f}% violations")
    if result.interrupted is not None:
        # Partial progress only: report it, skip the final JSON (its
        # absence is the unambiguous "this run did not finish" signal),
        # and exit with the conventional 128+signum code.
        name = signal.Signals(result.interrupted).name
        where = (
            f"progress checkpointed to {args.checkpoint}; rerun with "
            f"--resume to continue"
            if args.checkpoint
            else "no --checkpoint, so completed shards were discarded"
        )
        print(f"interrupted: {name} after "
              f"{result.sessions_completed}/{result.sessions} sessions; {where}")
        return 128 + result.interrupted
    if args.json_out:
        write_file_atomic(args.json_out, result.to_json())
        print(f"json:        {args.json_out}")
    return 0 if result.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import main_serve

    return main_serve(
        host=args.host,
        port=args.port,
        state_dir=args.state_dir,
        workers=args.jobs,
        max_concurrent_jobs=args.max_concurrent_jobs,
        max_queued_jobs=args.max_queued_jobs,
        retain_jobs=args.retain_jobs,
        retain_age_s=args.retain_age,
        quiet=args.quiet,
    )


def _cmd_checkpoint_inspect(args: argparse.Namespace) -> int:
    """Describe a checkpoint journal without touching it.

    Exit codes: 0 for a readable journal (even one with a torn tail —
    that is expected damage a resume repairs), 2 when the file is
    missing or not a checkpoint at all.
    """
    from repro.errors import EvaluationError
    from repro.fleet.checkpoint import CHECKPOINT_VERSION, scan_checkpoint

    size = os.path.getsize(args.journal)  # OSError -> exit 2 via main()
    header, completed, intact_bytes = scan_checkpoint(args.journal)
    if header is None:
        raise EvaluationError(
            f"{args.journal} has no intact header record; not a usable "
            f"checkpoint"
        )
    print(f"journal:     {args.journal} ({size} bytes)")
    version = header.get("version")
    compat = "" if version == CHECKPOINT_VERSION else (
        f"  (this build writes v{CHECKPOINT_VERSION}; resume will refuse)"
    )
    print(f"format:      v{version}{compat}")
    fingerprint = header.get("fingerprint") or {}
    for key in sorted(fingerprint):
        value = str(fingerprint[key])
        if len(value) > 120:
            value = f"{value[:117]}..."
        print(f"  {key + ':':14s}{value}")
    sessions = sum(partial["sessions"] for partial in completed.values())
    shards = ", ".join(str(index) for index in sorted(completed)) or "(none)"
    print(f"completed:   {len(completed)} shard(s), {sessions} sessions")
    print(f"  shards:      {shards}")
    if intact_bytes < size:
        print(f"tail:        TORN — last {size - intact_bytes} byte(s) are "
              f"an interrupted write; resume truncates and reruns them")
    else:
        print("tail:        intact")
    return 0


def _cmd_autogreen(args: argparse.Namespace) -> int:
    from repro.autogreen import AutoGreen, generate_annotations

    bundle = build_app(args.app, with_manual_annotations=False)
    report = generate_annotations(AutoGreen(bundle.page).run())
    print(f"AutoGreen on {args.app!r}: {len(report.results)} target(s), "
          f"{report.continuous_count} continuous / {report.single_count} single")
    print(report.css_text or "(no annotation targets discovered)")
    if report.ambiguous_selectors:
        print(f"warning: ambiguous selectors (may over-match): "
              f"{', '.join(report.ambiguous_selectors)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GreenWeb (PLDI 2016) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("apps", help="list the Table 3 applications").set_defaults(
        fn=_cmd_apps
    )

    run_parser = sub.add_parser("run", help="run one experiment cell")
    run_parser.add_argument("app", choices=APP_NAMES)
    run_parser.add_argument(
        "--governor", default="greenweb", metavar="SPEC",
        help="policy spec: a registered name or NAME(k=v,...), e.g. "
        f"greenweb(ewma_alpha=0.25); known: {', '.join(POLICIES.names())}",
    )
    run_parser.add_argument(
        "--scenario", default="imperceptible", metavar="SPEC",
        help="usage scenario: a registered name or NAME(k=v,...), e.g. "
        f"thermal(cap_mhz=1100); known: {', '.join(SCENARIOS.names())}",
    )
    run_parser.add_argument("--trace", default="micro", choices=["micro", "full"])
    run_parser.add_argument(
        "--trace-level", default="full", choices=list(TRACE_LEVELS),
        help="tracing cost level: full (retain + index), gated (stream "
        "to metric folds only, constant memory), off (no tracing; "
        "trace-derived metrics read as empty).  Results are identical "
        "between full and gated (default: full)",
    )
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument(
        "--export-trace",
        metavar="PATH",
        help="also write a chrome://tracing timeline JSON",
    )
    run_parser.set_defaults(fn=_cmd_run)

    figures_parser = sub.add_parser("figures", help="regenerate paper figures")
    figures_parser.add_argument(
        "--only",
        nargs="+",
        choices=["table1", "fig9", "fig10", "fig11", "fig12", "table3"],
        help="subset of figures (default: all)",
    )
    figures_parser.add_argument(
        "--apps", nargs="+", choices=APP_NAMES, help="subset of applications"
    )
    figures_parser.add_argument("--seed", type=int, default=0)
    figures_parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the experiment matrix (default: 1)",
    )
    figures_parser.set_defaults(fn=_cmd_figures)

    fleet_parser = sub.add_parser(
        "fleet", help="simulate a population of sessions in parallel"
    )
    fleet_parser.add_argument(
        "--sessions", type=int, default=100, help="population size (default: 100)"
    )
    fleet_parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes (default: 1)"
    )
    fleet_parser.add_argument("--seed", type=int, default=0, help="root seed")
    fleet_parser.add_argument(
        "--mix",
        help="population mix: comma-separated "
        "APP[:GOVERNOR[:SCENARIO[:TRACE]]][=WEIGHT] items; GOVERNOR and "
        "SCENARIO may be parameterized specs like "
        "greenweb(ewma_alpha=0.25) or thermal(cap_mhz=1100) "
        "(default: every app under greenweb and perf, micro traces)",
    )
    fleet_parser.add_argument(
        "--json-out", metavar="PATH", help="write the deterministic JSON summary"
    )
    fleet_parser.add_argument(
        "--shard-size", type=int, default=8,
        help="sessions per shard (default: 8; independent of --jobs)",
    )
    fleet_parser.add_argument(
        "--max-retries", type=int, default=1,
        help="retry budget per failed shard (default: 1)",
    )
    fleet_parser.add_argument(
        "--shard-timeout", type=float, default=300.0,
        help="per-shard wall-clock deadline in seconds (default: 300)",
    )
    fleet_parser.add_argument(
        "--trace-level", default="gated", choices=list(TRACE_LEVELS),
        help="per-session tracing level (default: gated — streaming "
        "folds keep memory constant; aggregates identical to full)",
    )
    fleet_parser.add_argument(
        "--checkpoint", metavar="PATH",
        help="durably append each completed shard's partial aggregate "
        "to PATH (fsync'd JSONL) so an interrupted run can be resumed; "
        "without --resume an existing checkpoint is overwritten",
    )
    fleet_parser.add_argument(
        "--resume", action="store_true",
        help="reload completed shards from --checkpoint PATH and run "
        "only the rest; refuses (exit 2) if the checkpoint was written "
        "for a different spec.  The resumed run's JSON is byte-identical "
        "to an uninterrupted one",
    )
    fleet_parser.add_argument(
        "--progress", choices=["auto", "always", "never"], default="auto",
        help="stderr heartbeat (shards, sessions/s, ETA) updated per "
        "completed shard; auto shows it only when stderr is a TTY "
        "(default: auto)",
    )
    fleet_parser.set_defaults(fn=_cmd_fleet)

    serve_parser = sub.add_parser(
        "serve", help="run the fleet-as-a-service HTTP daemon"
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=8734, help="TCP port (default: 8734)"
    )
    serve_parser.add_argument(
        "--jobs", type=int, default=2,
        help="persistent worker processes, partitioned across the "
        "concurrent-job lanes (default: 2; every lane gets at least 1)",
    )
    serve_parser.add_argument(
        "--max-concurrent-jobs", type=int, default=1, metavar="N",
        help="jobs executed at once, each lane on its own worker-pool "
        "partition of --jobs/N processes (default: 1)",
    )
    serve_parser.add_argument(
        "--max-queued-jobs", type=int, default=None, metavar="N",
        help="admission-queue bound: POST /jobs answers 429 with a "
        "Retry-After hint once N jobs are queued (default: unbounded); "
        "recovery after a restart is exempt",
    )
    serve_parser.add_argument(
        "--retain-jobs", type=int, default=None, metavar="N",
        help="retention GC: keep at most the N most recently settled "
        "jobs, pruning older ones from the state dir (default: keep "
        "all); queued/running jobs and their checkpoints are never "
        "touched",
    )
    serve_parser.add_argument(
        "--retain-age", type=float, default=None, metavar="SECONDS",
        help="retention GC: prune jobs settled more than SECONDS ago "
        "(default: keep all); combines with --retain-jobs (either "
        "limit prunes)",
    )
    serve_parser.add_argument(
        "--state-dir", default="repro-serve", metavar="DIR",
        help="job records, checkpoint journals, and results live here; "
        "restarting with the same DIR resumes in-flight jobs "
        "(default: ./repro-serve)",
    )
    serve_parser.add_argument(
        "--quiet", action="store_true", help="suppress per-request log lines"
    )
    serve_parser.set_defaults(fn=_cmd_serve)

    checkpoint_parser = sub.add_parser(
        "checkpoint", help="inspect fleet checkpoint journals"
    )
    checkpoint_sub = checkpoint_parser.add_subparsers(
        dest="checkpoint_command", required=True
    )
    inspect_parser = checkpoint_sub.add_parser(
        "inspect", help="describe a journal: fingerprint, shards, tail"
    )
    inspect_parser.add_argument("journal", help="checkpoint JSONL path")
    inspect_parser.set_defaults(fn=_cmd_checkpoint_inspect)

    analyze_parser = sub.add_parser("analyze", help="frame-timeline stats for a run")
    analyze_parser.add_argument("app", choices=APP_NAMES)
    analyze_parser.add_argument(
        "--governor", default="greenweb", metavar="SPEC",
        help="policy spec: a registered name or NAME(k=v,...); known: "
        f"{', '.join(POLICIES.names())}",
    )
    analyze_parser.add_argument(
        "--scenario", default="imperceptible", metavar="SPEC",
        help="usage scenario: a registered name or NAME(k=v,...); known: "
        f"{', '.join(SCENARIOS.names())}",
    )
    analyze_parser.add_argument("--trace", default="micro", choices=["micro", "full"])
    analyze_parser.add_argument("--seed", type=int, default=0)
    analyze_parser.set_defaults(fn=_cmd_analyze)

    autogreen_parser = sub.add_parser("autogreen", help="auto-annotate an app")
    autogreen_parser.add_argument("app", choices=APP_NAMES)
    autogreen_parser.set_defaults(fn=_cmd_autogreen)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Piped into `head` etc.: the consumer closing the pipe is not
        # an error.  Swallow the tail and exit cleanly.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0
    except KeyboardInterrupt:
        # Commands with a graceful interruption path (fleet) never let
        # the first Ctrl-C reach here; this catches the second signal's
        # forced exit and plain Ctrl-C in commands without one.
        print("error: interrupted", file=sys.stderr)
        return 128 + signal.SIGINT
    except (ReproError, OSError) as exc:
        # Misconfiguration (bad --mix, bad spec values, unwritable
        # output path, ...) is a usage error, not a crash: report it
        # argparse-style.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
