"""Checkpoint/resume: fingerprints, the store, and byte-identity.

The contract under test: an interrupted-then-resumed fleet run must
serialise **byte-identically** to the same spec run uninterrupted, at
any job count; a resume against a checkpoint written for a different
spec must refuse before running any shard; and a record torn by a crash
mid-write is dropped and repaired, never trusted.
"""

import json
import os
import shutil

import pytest

from repro.errors import EvaluationError
from repro.fleet import (
    CheckpointStore,
    Fleet,
    FleetSpec,
    parse_mix,
    scan_checkpoint,
)

from tests.conftest import FAST_MIX

SPEC = dict(sessions=8, seed=7, mix=FAST_MIX, shard_size=3)


def clean_json():
    """The reference output every resumed run must reproduce."""
    return Fleet(FleetSpec(**SPEC), jobs=1).run().to_json()


# ----------------------------------------------------------------------
# Spec fingerprints
# ----------------------------------------------------------------------
class TestFingerprint:
    def test_equal_specs_equal_fingerprints(self):
        assert FleetSpec(**SPEC).fingerprint() == FleetSpec(**SPEC).fingerprint()

    def test_execution_knobs_excluded(self):
        # Retry budget, timeout, and fault injection cannot change any
        # result, so retrying an interrupted run with different values
        # must still be resumable.
        base = FleetSpec(**SPEC).fingerprint()
        tweaked = FleetSpec(
            **SPEC, max_retries=5, shard_timeout_s=1.0,
            inject_crash={"shard": 0, "attempts": 1},
        )
        assert tweaked.fingerprint() == base

    @pytest.mark.parametrize(
        "override",
        [dict(sessions=9), dict(seed=8), dict(shard_size=4),
         dict(settle_s=2.0), dict(mix=parse_mix("todo:perf")),
         dict(mix=parse_mix("todo:greenweb"))],
    )
    def test_result_determining_fields_included(self, override):
        assert FleetSpec(**{**SPEC, **override}).fingerprint() != (
            FleetSpec(**SPEC).fingerprint()
        )

    def test_json_stable(self):
        fingerprint = FleetSpec(**SPEC).fingerprint()
        assert json.loads(json.dumps(fingerprint)) == fingerprint


# ----------------------------------------------------------------------
# The store itself
# ----------------------------------------------------------------------
def _partial(shard, sessions=3):
    return {"shard": shard, "sessions": sessions,
            "aggregate": {"marker": f"shard-{shard}"}}


class TestCheckpointStore:
    def test_fresh_writes_header_first(self, tmp_path):
        path = str(tmp_path / "cp.jsonl")
        fingerprint = FleetSpec(**SPEC).fingerprint()
        with CheckpointStore.fresh(path, fingerprint):
            pass
        first = json.loads(open(path).readline())
        assert first["kind"] == "header"
        assert first["fingerprint"] == fingerprint

    def test_record_scan_round_trip(self, tmp_path):
        path = str(tmp_path / "cp.jsonl")
        with CheckpointStore.fresh(path, {"seed": 1}) as store:
            store.record(_partial(0))
            store.record(_partial(2))
        header, completed, _ = scan_checkpoint(path)
        assert header["fingerprint"] == {"seed": 1}
        assert sorted(completed) == [0, 2]
        assert completed[2]["aggregate"] == {"marker": "shard-2"}

    def test_resume_missing_file_starts_fresh(self, tmp_path):
        path = str(tmp_path / "cp.jsonl")
        with CheckpointStore.resume(path, {"seed": 1}) as store:
            assert store.completed == {}
        assert json.loads(open(path).readline())["kind"] == "header"

    def test_resume_empty_file_starts_fresh(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        path.touch()  # previous run died before its header hit disk
        with CheckpointStore.resume(str(path), {"seed": 1}) as store:
            assert store.completed == {}

    def test_resume_reloads_and_appends(self, tmp_path):
        path = str(tmp_path / "cp.jsonl")
        with CheckpointStore.fresh(path, {"seed": 1}) as store:
            store.record(_partial(0))
        with CheckpointStore.resume(path, {"seed": 1}) as store:
            assert sorted(store.completed) == [0]
            store.record(_partial(1))
        _, completed, _ = scan_checkpoint(path)
        assert sorted(completed) == [0, 1]

    def test_resume_rejects_fingerprint_mismatch(self, tmp_path):
        path = str(tmp_path / "cp.jsonl")
        with CheckpointStore.fresh(path, {"seed": 1, "sessions": 8}):
            pass
        with pytest.raises(EvaluationError, match="seed"):
            CheckpointStore.resume(path, {"seed": 2, "sessions": 8})

    def test_resume_rejects_non_checkpoint_file(self, tmp_path):
        path = tmp_path / "not-a-checkpoint.json"
        path.write_text('{"some": "other json file"}\n')
        with pytest.raises(EvaluationError, match="not a fleet checkpoint"):
            CheckpointStore.resume(str(path), {"seed": 1})

    def test_resume_rejects_format_version_skew(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        path.write_text(
            json.dumps({"kind": "header", "version": 999,
                        "fingerprint": {"seed": 1}}) + "\n"
        )
        with pytest.raises(EvaluationError, match="version"):
            CheckpointStore.resume(str(path), {"seed": 1})

    def test_torn_trailing_record_dropped_and_truncated(self, tmp_path):
        path = str(tmp_path / "cp.jsonl")
        with CheckpointStore.fresh(path, {"seed": 1}) as store:
            store.record(_partial(0))
            store.record(_partial(1))
        intact_size = os.path.getsize(path)
        with open(path, "a") as handle:
            handle.write('{"kind": "shard", "shard": 2, "ses')  # died mid-write
        with CheckpointStore.resume(path, {"seed": 1}) as store:
            assert sorted(store.completed) == [0, 1]
        assert os.path.getsize(path) == intact_size  # damage truncated away

    def test_garbled_complete_line_also_ends_scan(self, tmp_path):
        path = str(tmp_path / "cp.jsonl")
        with CheckpointStore.fresh(path, {"seed": 1}) as store:
            store.record(_partial(0))
        with open(path, "ab") as handle:
            handle.write(b"\x00\xff garbage \n")
        _, completed, intact = scan_checkpoint(path)
        assert sorted(completed) == [0]
        assert intact < os.path.getsize(path)

    def test_record_after_close_refused(self, tmp_path):
        path = str(tmp_path / "cp.jsonl")
        store = CheckpointStore.fresh(path, {"seed": 1})
        store.close()
        with pytest.raises(EvaluationError, match="closed"):
            store.record(_partial(0))


# ----------------------------------------------------------------------
# Resume through the driver: byte-identity and skip planning
# ----------------------------------------------------------------------
class TestResumeByteIdentity:
    def _interrupted_checkpoint(self, tmp_path, jobs=1):
        """A checkpoint from a run that lost shard 1 (permanent crash
        with no retry budget): shards 0 and 2 are durably recorded."""
        path = str(tmp_path / "cp.jsonl")
        crashing = FleetSpec(
            **SPEC, max_retries=0, inject_crash={"shard": 1, "attempts": 99}
        )
        result = Fleet(crashing, jobs=jobs, checkpoint=path).run()
        assert not result.ok
        assert sorted(scan_checkpoint(path)[1]) == [0, 2]
        return path

    def test_resumed_run_byte_identical_inline(self, tmp_path):
        path = self._interrupted_checkpoint(tmp_path)
        resumed = Fleet(
            FleetSpec(**SPEC), jobs=1, checkpoint=path, resume=True
        ).run()
        assert resumed.ok
        assert resumed.resumed_shards == 2
        assert resumed.to_json() == clean_json()

    def test_resumed_run_byte_identical_pooled(self, tmp_path):
        path = self._interrupted_checkpoint(tmp_path, jobs=2)
        resumed = Fleet(
            FleetSpec(**SPEC), jobs=4, checkpoint=path, resume=True
        ).run()
        assert resumed.ok
        assert resumed.to_json() == clean_json()

    def test_resume_jobs_do_not_change_bytes(self, tmp_path):
        source = self._interrupted_checkpoint(tmp_path)
        outputs = []
        for jobs in (1, 3):
            copy = str(tmp_path / f"cp-{jobs}.jsonl")
            shutil.copy(source, copy)
            outputs.append(
                Fleet(FleetSpec(**SPEC), jobs=jobs, checkpoint=copy,
                      resume=True).run().to_json()
            )
        assert outputs[0] == outputs[1] == clean_json()

    def test_resume_skips_completed_shards(self, tmp_path, monkeypatch):
        path = str(tmp_path / "cp.jsonl")
        Fleet(FleetSpec(**SPEC), jobs=1, checkpoint=path).run()
        reference = clean_json()  # before run_shard_job is disarmed below

        def explode(_payload):
            raise AssertionError("a completed shard was re-executed")

        monkeypatch.setattr("repro.fleet.driver.run_shard_job", explode)
        resumed = Fleet(
            FleetSpec(**SPEC), jobs=1, checkpoint=path, resume=True
        ).run()
        assert resumed.ok
        assert resumed.resumed_shards == resumed.shards_total
        assert resumed.to_json() == reference

    def test_corrupt_tail_reruns_that_shard_only(self, tmp_path):
        path = str(tmp_path / "cp.jsonl")
        Fleet(FleetSpec(**SPEC), jobs=1, checkpoint=path).run()
        # Tear the final record the way a mid-write crash would.
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[:-20])
        resumed = Fleet(
            FleetSpec(**SPEC), jobs=1, checkpoint=path, resume=True
        ).run()
        assert resumed.resumed_shards == resumed.shards_total - 1
        assert resumed.to_json() == clean_json()

    @pytest.mark.parametrize(
        "override",
        [dict(seed=8), dict(shard_size=4),
         dict(mix=parse_mix("todo:greenweb"))],
    )
    def test_fingerprint_mismatch_refused_without_running(
        self, tmp_path, monkeypatch, override
    ):
        path = self._interrupted_checkpoint(tmp_path)

        def explode(_payload):
            raise AssertionError("a shard ran despite the mismatch")

        monkeypatch.setattr("repro.fleet.driver.run_shard_job", explode)
        with pytest.raises(EvaluationError, match="different fleet spec"):
            Fleet(
                FleetSpec(**{**SPEC, **override}), jobs=1,
                checkpoint=path, resume=True,
            ).run()

    def test_resume_requires_checkpoint(self):
        with pytest.raises(EvaluationError, match="checkpoint"):
            Fleet(FleetSpec(**SPEC), jobs=1, resume=True)

    def test_checkpoint_without_resume_starts_over(self, tmp_path):
        path = self._interrupted_checkpoint(tmp_path)
        fresh = Fleet(FleetSpec(**SPEC), jobs=1, checkpoint=path).run()
        assert fresh.resumed_shards == 0
        assert fresh.to_json() == clean_json()


# ----------------------------------------------------------------------
# Raw journal bytes
# ----------------------------------------------------------------------
class TestJournalBytes:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_journal_byte_identical_across_job_counts(self, tmp_path, jobs):
        """A complete run's raw checkpoint journal — header and every
        shard record — carries the same bytes at any job count.  Pooled
        workers may finish shards out of order, so the records are
        compared as a multiset of lines."""
        reference_path = str(tmp_path / "reference.jsonl")
        Fleet(FleetSpec(**SPEC), jobs=1, checkpoint=reference_path).run()
        path = str(tmp_path / f"jobs-{jobs}.jsonl")
        assert Fleet(FleetSpec(**SPEC), jobs=jobs, checkpoint=path).run().ok
        with open(reference_path, "rb") as handle:
            reference = handle.read().splitlines(keepends=True)
        with open(path, "rb") as handle:
            journal = handle.read().splitlines(keepends=True)
        assert journal[0] == reference[0]
        assert sorted(journal[1:]) == sorted(reference[1:])
        header, completed, _ = scan_checkpoint(path)
        assert header["fingerprint"] == FleetSpec(**SPEC).fingerprint()
        assert sorted(completed) == [0, 1, 2]


# ----------------------------------------------------------------------
# Through the CLI
# ----------------------------------------------------------------------
class TestCheckpointCli:
    ARGS = ["fleet", "--sessions", "8", "--seed", "7", "--shard-size", "3",
            "--mix", "todo:greenweb,cnet:perf"]

    def test_failed_then_resumed_matches_single_shot(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        checkpoint = str(tmp_path / "cp.jsonl")
        resumed_json = tmp_path / "resumed.json"
        clean_out = tmp_path / "clean.json"

        monkeypatch.setenv(
            "REPRO_FLEET_INJECT_CRASH", '{"shard": 1, "attempts": 99}'
        )
        assert main(
            self.ARGS + ["--max-retries", "0", "--checkpoint", checkpoint]
        ) == 1  # shard 1 failed; the rest are checkpointed
        monkeypatch.delenv("REPRO_FLEET_INJECT_CRASH")

        assert main(
            self.ARGS + ["--checkpoint", checkpoint, "--resume",
                         "--json-out", str(resumed_json)]
        ) == 0
        assert "resumed:     2 shard(s)" in capsys.readouterr().out

        assert main(self.ARGS + ["--json-out", str(clean_out)]) == 0
        assert resumed_json.read_bytes() == clean_out.read_bytes()

    def test_resume_without_checkpoint_is_usage_error(self, capsys):
        from repro.cli import main

        assert main(self.ARGS + ["--resume"]) == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_resume_mismatch_exits_2_and_creates_no_output(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        checkpoint = str(tmp_path / "cp.jsonl")
        assert main(self.ARGS + ["--checkpoint", checkpoint]) == 0
        out_path = tmp_path / "out.json"
        assert main(
            ["fleet", "--sessions", "8", "--seed", "8", "--shard-size", "3",
             "--mix", "todo:greenweb,cnet:perf", "--checkpoint", checkpoint,
             "--resume", "--json-out", str(out_path)]
        ) == 2
        assert "different fleet spec" in capsys.readouterr().err
        # The writability probe must not have materialised an empty
        # file that looks like a truncated result.
        assert not out_path.exists()
