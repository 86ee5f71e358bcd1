"""Tests for the CLI and the Chrome-trace exporter."""

import hashlib
import json
import os

import pytest

from repro.cli import build_parser, main
from repro.evaluation.report import ascii_bars
from repro.sim.trace_export import export_chrome_trace, to_chrome_trace
from repro.sim.tracing import TraceLog


#: ``run cnet --scenario thermal(cap_mhz=1100)``'s stdout; with
#: ``--export-trace`` a ``chrome trace:`` line follows it.
EXPORT_SCORECARD = """\
app:            cnet (micro trace, seed 0)
governor:       greenweb / thermal(cap_mhz=1100)
duration:       19.0 s simulated
inputs/frames:  6 / 214 (9 skipped vsyncs)
energy:         1.681 J total, 1408.1 mJ in interaction windows
QoS violations: 0.33% mean over 6 annotated events
switching:      16 frequency, 14 migrations
residency:      little@350MHz=75%, big@1100MHz=9%, big@1000MHz=7%, big@800MHz=4%
runtime:        {'inputs_seen': 6, 'unannotated_inputs': 0, 'predictions': 201, \
'profiling_frames': 19, 'violations_fed_back': 9, 'boosts_up': 9, 'boosts_down': 1, \
'recalibrations': 2, 'idle_drops': 6}
"""

#: ``analyze cnet --governor ondemand --scenario thermal --seed 1``'s
#: stdout, recorded when the FPS series still came from a retained trace.
ANALYZE_REPORT = """\
frame timeline for cnet / ondemand / thermal:
  frames:      222 over 15.6 s (14.2 fps mean)
  latency:     p50=5.4 ms  p95=12.6 ms  p99=14.9 ms  max=15.2 ms
  jank:        0 frames >= 2 vsync periods (0.0%)

fps over time (1 s buckets):
    0s |#########################               |   37.0 fps
    1s |                                        |    0.0 fps
    2s |                                        |    0.0 fps
    3s |#########################               |   37.0 fps
    4s |                                        |    0.0 fps
    5s |                                        |    0.0 fps
    6s |#########################               |   37.0 fps
    7s |                                        |    0.0 fps
    8s |                                        |    0.0 fps
    9s |#########################               |   37.0 fps
   10s |                                        |    0.0 fps
   11s |                                        |    0.0 fps
   12s |#########################               |   37.0 fps
   13s |                                        |    0.0 fps
   14s |                                        |    0.0 fps
   15s |#########################               |   37.0 fps
"""


class TestTraceExport:
    def make_trace(self):
        trace = TraceLog()
        trace.emit(100, "input", "click", uid=1, target="#btn")
        trace.emit(200, "config", "applied", cluster="big", freq_mhz=1800)
        trace.emit(300, "animation", "start", kind="transition", uid=1,
                   target="width", end_us=2000)
        trace.emit(2000, "animation", "end", kind="transition", uid=1, target="width")
        trace.emit(20_000, "frame", "displayed", seq=1, uids=(1,),
                   complexity=1.0, max_latency_us=19_900)
        trace.emit(25_000, "input", "complete", uid=1, frames=1)
        return trace

    def test_event_kinds(self):
        events = to_chrome_trace(self.make_trace())
        phases = [e["ph"] for e in events]
        assert phases.count("M") == 4  # track names
        names = [e["name"] for e in events]
        assert "input:click" in names
        assert "frame 1" in names
        assert "animation:transition" in names
        assert "freq_mhz" in names

    def test_frame_duration_spans_latency(self):
        events = to_chrome_trace(self.make_trace())
        frame = next(e for e in events if e["name"] == "frame 1")
        assert frame["ph"] == "X"
        assert frame["dur"] == 19_900
        assert frame["ts"] == 20_000 - 19_900

    def test_animation_duration(self):
        events = to_chrome_trace(self.make_trace())
        animation = next(e for e in events if e["name"].startswith("animation"))
        assert animation["ts"] == 300
        assert animation["dur"] == 1_700

    def test_export_writes_valid_json(self, tmp_path):
        path = tmp_path / "trace.json"
        count = export_chrome_trace(self.make_trace(), str(path))
        data = json.loads(path.read_text())
        assert len(data["traceEvents"]) == count
        assert data["displayTimeUnit"] == "ms"

    def test_tuples_become_lists(self):
        events = to_chrome_trace(self.make_trace())
        frame = next(e for e in events if e["name"] == "frame 1")
        assert frame["args"]["uids"] == [1]

    def test_complete_records_not_instants(self):
        events = to_chrome_trace(self.make_trace())
        assert not any(e["name"] == "input:complete" for e in events)


class TestAsciiBars:
    def test_basic_render(self):
        chart = ascii_bars(["a", "bb"], [50.0, 100.0], width=10, max_value=100)
        lines = chart.splitlines()
        assert lines[0].startswith("a ")
        assert "#####" in lines[0]
        assert "##########" in lines[1]

    def test_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ascii_bars(["a"], [1.0, 2.0])

    def test_empty(self):
        assert ascii_bars([], []) == "(no data)"

    def test_values_above_max_clamped(self):
        chart = ascii_bars(["x"], [200.0], width=10, max_value=100)
        assert chart.count("#") == 10


class TestCli:
    def test_apps_command(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        assert "todo" in out and "w3schools" in out

    def test_run_command(self, capsys):
        assert main(["run", "todo", "--governor", "perf"]) == 0
        out = capsys.readouterr().out
        assert "energy:" in out
        assert "QoS violations:" in out

    def test_analyze_runs_untraced_and_is_pinned(self, monkeypatch, capsys):
        def no_trace():
            raise AssertionError("analyze attached a trace")

        monkeypatch.setattr("repro.evaluation.runner.TraceLog", no_trace)
        argv = ["analyze", "cnet", "--governor", "ondemand", "--scenario", "thermal"]
        assert main(argv + ["--seed", "1"]) == 0
        assert capsys.readouterr().out == ANALYZE_REPORT

    def test_analyze_reports_simulated_and_elided_events_on_stderr(self, capsys):
        """The kernel's execution fact: simulated events (fired plus
        elided) and the elided sampler ticks by label, kept off stdout."""
        argv = ["analyze", "cnet", "--governor", "ondemand", "--scenario", "thermal"]
        assert main(argv + ["--seed", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ANALYZE_REPORT
        assert captured.err == (
            "kernel: 3,431 simulated events; "
            "elided ticks: ondemand 697, scenario/thermal 591\n"
        )

    def test_run_with_trace_export(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        assert main(["run", "todo", "--export-trace", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["traceEvents"]

    def test_export_trace_bytes_pinned(self, tmp_path, capsys):
        """The exported timeline of one thermal-scenario cell, and the
        scorecard printed from the same session, pinned so the export's
        session wiring cannot drift silently."""
        path = tmp_path / "out.json"
        argv = ["run", "cnet", "--scenario", "thermal(cap_mhz=1100)", "--export-trace", str(path)]
        assert main(argv) == 0
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "1d11e4f9f92728dad0bd020ae5b6763b1841564b6e15d9f5c0b25cbc51a5165d"
        out = capsys.readouterr().out
        assert out == EXPORT_SCORECARD + f"chrome trace:   {path} (1580 events)\n"
        assert main(argv[:-2]) == 0
        assert capsys.readouterr().out == EXPORT_SCORECARD

    def test_export_trace_refusals_come_before_simulating(self, monkeypatch, tmp_path, capsys):
        def explode(*_args, **_kwargs):
            raise AssertionError("simulation ran for a post-hoc policy")

        monkeypatch.setattr("repro.cli.run_workload", explode)
        monkeypatch.setattr("repro.evaluation.runner.SessionExecution.run", explode)
        path = tmp_path / "out.json"
        argv = ["run", "todo", "--governor", "oracle", "--export-trace", str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --export-trace needs a live policy")
        assert "'oracle' is post-hoc" in err
        assert not path.exists()

    def test_run_export_trace_unwritable_fails_fast(self, monkeypatch, capsys):
        # The path is probed before the simulation runs: a typo'd export
        # path must not cost a full run before being reported.
        def explode(*_args, **_kwargs):
            raise AssertionError("simulation ran despite unwritable path")

        monkeypatch.setattr("repro.cli.run_workload", explode)
        monkeypatch.setattr("repro.evaluation.runner.SessionExecution.run", explode)
        assert main([
            "run", "todo", "--export-trace", "/nosuchdir/trace.json",
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--export-trace" in err

    def test_run_export_trace_probe_creates_nothing(self, tmp_path, capsys):
        target = tmp_path / "trace.json"
        readonly = tmp_path / "readonly"
        readonly.mkdir()
        os.chmod(readonly, 0o500)
        try:
            rc = main([
                "run", "todo", "--export-trace", str(readonly / "t.json"),
            ])
        finally:
            os.chmod(readonly, 0o700)
        if os.geteuid() != 0:  # root bypasses file permission checks
            assert rc == 2
            assert list(readonly.iterdir()) == []
        capsys.readouterr()
        # A writable path still exports, and the probe itself never
        # materialises an empty file ahead of the real write.
        assert main(["run", "todo", "--export-trace", str(target)]) == 0
        assert json.loads(target.read_text())["traceEvents"]

    def test_autogreen_command(self, capsys):
        assert main(["autogreen", "goo_ne_jp"]) == 0
        out = capsys.readouterr().out
        assert "ontouchstart-qos: continuous" in out

    def test_figures_subset(self, capsys):
        assert main(["figures", "--only", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_figures_fig9_single_app(self, capsys):
        assert main(["figures", "--only", "fig9", "--apps", "todo"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 9" in out
        assert "todo" in out

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_figures_rejects_fewer_than_one_job(self, jobs, capsys):
        assert main(["figures", "--only", "table1", "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: figures need >= 1 job, got {jobs}")
        assert captured.out == ""

    def test_run_seed_reproducible(self, capsys):
        assert main(["run", "todo", "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["run", "todo", "--seed", "5"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "seed 5" in first

    def test_run_seed_changes_workload(self, capsys):
        assert main(["run", "todo", "--trace", "full", "--seed", "0"]) == 0
        base = capsys.readouterr().out
        assert main(["run", "todo", "--trace", "full", "--seed", "99"]) == 0
        other = capsys.readouterr().out
        energy = [line for line in base.splitlines() if line.startswith("energy:")]
        energy_other = [
            line for line in other.splitlines() if line.startswith("energy:")
        ]
        assert energy != energy_other

    def test_fleet_command(self, tmp_path, capsys):
        path = tmp_path / "fleet.json"
        assert main([
            "fleet", "--sessions", "4", "--jobs", "1", "--seed", "3",
            "--mix", "todo:greenweb,cnet:perf", "--json-out", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "completed:   4/4 sessions" in out
        assert "by governor:" in out
        data = json.loads(path.read_text())
        assert data["run"]["sessions_completed"] == 4
        assert data["aggregate"]["sessions"] == 4
        assert data["run"]["failed_shards"] == []

    def test_fleet_json_out_unwritable_fails_fast(self, tmp_path, capsys):
        missing = tmp_path / "nosuchdir" / "fleet.json"
        assert main([
            "fleet", "--sessions", "2", "--mix", "todo:greenweb",
            "--json-out", str(missing),
        ]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_fleet_json_out_replaces_existing_file(self, tmp_path, capsys):
        path = tmp_path / "fleet.json"
        path.write_text("old results\n")
        assert main([
            "fleet", "--sessions", "2", "--jobs", "1", "--seed", "3",
            "--mix", "todo:greenweb", "--json-out", str(path),
        ]) == 0
        capsys.readouterr()
        assert json.loads(path.read_text())["run"]["sessions_completed"] == 2
        # The atomic-rename write leaves no temp droppings behind.
        assert [p.name for p in tmp_path.iterdir()] == ["fleet.json"]

    def test_fleet_rejects_bad_mix(self, capsys):
        assert main(["fleet", "--sessions", "2", "--mix", "netscape:perf"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown application 'netscape'")

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "netscape"])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fly"])

    @pytest.mark.parametrize("command", [["run", "todo"], ["fleet"]])
    def test_trace_level_flag_is_a_usage_error(self, command, capsys):
        # Both commands report only results, so they always run gated.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([*command, "--trace-level", "gated"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --trace-level" in capsys.readouterr().err


class TestTaskSpans:
    def test_task_spans_off_by_default(self):
        from repro.hardware import WorkUnit, odroid_xu_e

        platform = odroid_xu_e(trace=TraceLog())
        platform.create_context("w").submit(WorkUnit(1_000_000))
        platform.run_for(10_000)
        assert platform.trace.count(category="task") == 0

    def test_task_spans_recorded_when_enabled(self):
        from repro.hardware import WorkUnit, odroid_xu_e

        platform = odroid_xu_e(trace=TraceLog())
        platform.record_task_spans = True
        ctx = platform.create_context("worker")
        ctx.submit(WorkUnit(1_800_000), label="crunch")
        platform.run_for(10_000)
        spans = platform.trace.filter(category="task", name="span")
        assert len(spans) == 1
        assert spans[0]["context"] == "worker"
        assert spans[0]["label"] == "crunch"
        assert spans[0]["duration_us"] == 1000

    def test_spans_exported_on_own_tracks(self):
        from repro.hardware import WorkUnit, odroid_xu_e

        platform = odroid_xu_e(trace=TraceLog())
        platform.record_task_spans = True
        platform.create_context("alpha").submit(WorkUnit(1_000_000), label="a")
        platform.create_context("beta").submit(WorkUnit(1_000_000), label="b")
        platform.run_for(10_000)
        events = to_chrome_trace(platform.trace)
        tracks = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert "thread: alpha" in tracks and "thread: beta" in tracks
        names = [e["name"] for e in events if e["ph"] == "X"]
        assert "a" in names and "b" in names

    def test_cli_export_includes_task_spans(self, tmp_path):
        import json

        path = tmp_path / "spans.json"
        assert main(["run", "todo", "--export-trace", str(path)]) == 0
        data = json.loads(path.read_text())
        track_names = {
            e["args"]["name"] for e in data["traceEvents"] if e["ph"] == "M"
        }
        assert any(name.startswith("thread:") for name in track_names)


class TestCheckpointInspect:
    def make_journal(self, tmp_path, capsys):
        journal = str(tmp_path / "fleet.ckpt")
        assert main([
            "fleet", "--sessions", "4", "--shard-size", "2", "--seed", "3",
            "--mix", "todo:greenweb,cnet:perf", "--checkpoint", journal,
            "--progress", "never",
        ]) == 0
        capsys.readouterr()
        return journal

    def test_inspect_intact_journal(self, tmp_path, capsys):
        journal = self.make_journal(tmp_path, capsys)
        assert main(["checkpoint", "inspect", journal]) == 0
        out = capsys.readouterr().out
        assert "format:      v1" in out
        assert "completed:   2 shard(s), 4 sessions" in out
        assert "shards:      0, 1" in out
        assert "tail:        intact" in out
        assert "seed:         3" in out

    def test_inspect_torn_tail(self, tmp_path, capsys):
        journal = self.make_journal(tmp_path, capsys)
        with open(journal, "ab") as handle:
            handle.write(b'{"kind": "shard", "shard": 9, "sess')  # torn
        assert main(["checkpoint", "inspect", journal]) == 0
        out = capsys.readouterr().out
        assert "TORN" in out
        assert "completed:   2 shard(s)" in out  # damage hides nothing intact

    def test_inspect_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["checkpoint", "inspect", str(tmp_path / "nope.ckpt")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_inspect_non_checkpoint_exits_2(self, tmp_path, capsys):
        bogus = tmp_path / "notes.txt"
        bogus.write_text("just some text\n")
        assert main(["checkpoint", "inspect", str(bogus)]) == 2
        assert "error:" in capsys.readouterr().err


class TestFleetProgress:
    FLEET = ["fleet", "--sessions", "4", "--shard-size", "2",
             "--mix", "todo:greenweb,cnet:perf"]

    def test_progress_always_draws_heartbeat(self, capsys):
        assert main(self.FLEET + ["--progress", "always"]) == 0
        err = capsys.readouterr().err
        assert "shards 2/2" in err
        assert "sessions 4/4" in err
        assert "eta" in err

    def test_progress_never_is_silent(self, capsys):
        assert main(self.FLEET + ["--progress", "never"]) == 0
        assert capsys.readouterr().err == ""

    def test_progress_auto_without_tty_is_silent(self, capsys):
        # pytest's captured stderr is not a TTY, so auto must stay quiet.
        assert main(self.FLEET) == 0
        assert capsys.readouterr().err == ""

    def test_progress_line_clears_before_summary(self, capsys):
        assert main(self.FLEET + ["--progress", "always"]) == 0
        err = capsys.readouterr().err
        # The heartbeat ends with a clearing carriage return, so the
        # final stderr write leaves the cursor on a blank line.
        assert err.endswith("\r")


class TestServeStartup:
    def test_port_in_use_exits_2_with_one_line_error(self, tmp_path, capsys):
        import socket

        placeholder = socket.socket()
        placeholder.bind(("127.0.0.1", 0))
        port = placeholder.getsockname()[1]
        try:
            code = main([
                "serve", "--port", str(port),
                "--state-dir", str(tmp_path / "state"),
            ])
        finally:
            placeholder.close()
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot bind")
        assert "Traceback" not in err

    def test_bad_state_dir_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        assert main(["serve", "--port", "0", "--state-dir", str(blocker)]) == 2
        assert capsys.readouterr().err.startswith("error:")
