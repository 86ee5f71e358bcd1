"""Tests for the serve daemon: SSE framing, job store, HTTP API,
scheduling (priorities, concurrency, backpressure), retention GC,
metrics, cancellation, and restart/resume byte-parity with the batch
CLI."""

import json
import os
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import EvaluationError
from repro.fleet import Fleet
from repro.serve import (
    Job,
    JobStore,
    QueueFull,
    ServeApp,
    build_fleet_spec,
    clamp_cursor,
    encode_event,
    iter_events,
    merge_partials,
    normalize_job_payload,
)

#: Small-but-real population: 4 shards, two governors, ~15 ms/session.
FAST_JOB = {"sessions": 8, "shard_size": 2, "seed": 11,
            "mix": "todo:greenweb,cnet:perf"}


def batch_json(payload: dict) -> str:
    """What `repro fleet --json-out` writes for this payload."""
    spec = build_fleet_spec(normalize_job_payload(payload))
    return Fleet(spec).run().to_json()


# ----------------------------------------------------------------------
# SSE framing
# ----------------------------------------------------------------------
class TestSSE:
    def roundtrip(self, data, **kwargs):
        encoded = encode_event(data, **kwargs).decode("utf-8")
        events = list(iter_events(encoded.split("\n")))
        assert len(events) == 1
        return events[0]

    def test_roundtrip_simple(self):
        event = self.roundtrip("hello", event="update", id=7, retry=2000)
        assert event.data == "hello"
        assert event.event == "update"
        assert event.id == "7"
        assert event.retry == 2000

    def test_roundtrip_multiline(self):
        event = self.roundtrip("line one\nline two")
        assert event.data == "line one\nline two"

    def test_roundtrip_preserves_trailing_newline(self):
        # The byte-identity guarantee for the terminal result event
        # hinges on this: JSON documents end with "\n".
        text = json.dumps({"a": 1}, indent=2) + "\n"
        assert self.roundtrip(text, event="result").data == text

    def test_encode_rejects_multiline_fields(self):
        with pytest.raises(EvaluationError):
            encode_event("x", event="a\nb")
        with pytest.raises(EvaluationError):
            encode_event("x", id="1\n2")

    def test_parser_skips_comments_and_blank_events(self):
        stream = [": keep-alive", "", "event: ping", "", "data: real", ""]
        events = list(iter_events(stream))
        assert [e.data for e in events] == ["real"]

    def test_parser_ignores_non_integer_retry(self):
        (event,) = iter_events(["retry: soon", "data: x", ""])
        assert event.retry is None

    def test_event_ids_are_ordered(self):
        wire = b"".join(
            encode_event(f"n{i}", id=i) for i in range(1, 4)
        ).decode("utf-8")
        ids = [e.id for e in iter_events(wire.split("\n"))]
        assert ids == ["1", "2", "3"]

    def test_retry_is_stream_wide(self):
        # A standalone `retry:` frame carries no data, so it dispatches
        # no event — but per the EventSource spec it sets the stream's
        # reconnection time the moment the line is processed, and that
        # time sticks for every later event.  (Regression: the parser
        # used to reset retry after each dispatch, so the daemon's
        # leading retry frame was silently dropped.)
        stream = ["retry: 2000", "", "data: a", "", "data: b", ""]
        events = list(iter_events(stream))
        assert [e.data for e in events] == ["a", "b"]
        assert [e.retry for e in events] == [2000, 2000]

    def test_retry_can_be_updated_mid_stream(self):
        stream = ["retry: 1000", "data: a", "", "retry: 9000", "data: b", ""]
        assert [e.retry for e in iter_events(stream)] == [1000, 9000]

    def test_last_event_id_persists_across_dispatches(self):
        # The last-event-id buffer is NOT reset per event: an event
        # without its own `id:` line inherits the previous one.
        stream = ["id: 5", "data: a", "", "data: b", ""]
        assert [e.id for e in iter_events(stream)] == ["5", "5"]


# ----------------------------------------------------------------------
# Payload schema
# ----------------------------------------------------------------------
class TestNormalizePayload:
    def test_defaults_match_cli(self):
        canonical = normalize_job_payload({})
        assert canonical["sessions"] == 100
        assert canonical["seed"] == 0
        assert canonical["shard_size"] == 8
        assert canonical["trace_level"] == "gated"

    def test_rejects_unknown_fields(self):
        with pytest.raises(EvaluationError, match="unknown job field"):
            normalize_job_payload({"sesions": 10})

    def test_rejects_non_object(self):
        with pytest.raises(EvaluationError, match="JSON object"):
            normalize_job_payload([1, 2])

    def test_rejects_bool_as_int(self):
        with pytest.raises(EvaluationError, match="integer"):
            normalize_job_payload({"sessions": True})

    def test_mix_list_joined(self):
        canonical = normalize_job_payload({"mix": ["todo:greenweb", "cnet:perf"]})
        assert canonical["mix"] == "todo:greenweb,cnet:perf"

    def test_bad_mix_fails_at_submit(self):
        with pytest.raises(EvaluationError):
            normalize_job_payload({"mix": "no-such-app"})
        for mix in ("todo=inf", "todo:ondemand(timer_rate_ms=nan)",
                    "todo:greenweb(ewma_alpha=inf)", "todo:perf:netdelay(work_ms=nan)"):
            with pytest.raises(EvaluationError):
                normalize_job_payload({"mix": mix})

    @pytest.mark.parametrize(
        "fields",
        [
            {"settle_s": float("nan")},
            {"settle_s": -5},
            {"shard_timeout_s": -1},
            {"shard_timeout_s": float("inf")},
        ],
    )
    def test_out_of_range_durations_fail_at_submit(self, fields):
        with pytest.raises(EvaluationError):
            normalize_job_payload(fields)

    def test_bad_trace_level(self):
        with pytest.raises(EvaluationError, match="trace_level"):
            normalize_job_payload({"trace_level": "loud"})

    def test_spec_roundtrip_matches_cli_spec(self):
        canonical = normalize_job_payload(dict(FAST_JOB))
        spec = build_fleet_spec(canonical)
        assert spec.sessions == 8
        assert spec.fingerprint() == build_fleet_spec(canonical).fingerprint()

    def test_priority_defaults_to_zero(self):
        assert normalize_job_payload({})["priority"] == 0
        assert normalize_job_payload({"priority": 7})["priority"] == 7

    def test_priority_must_be_int_in_range(self):
        with pytest.raises(EvaluationError, match="integer"):
            normalize_job_payload({"priority": 1.5})
        with pytest.raises(EvaluationError, match="priority"):
            normalize_job_payload({"priority": 99})
        with pytest.raises(EvaluationError, match="priority"):
            normalize_job_payload({"priority": -99})

    def test_priority_never_reaches_the_fleet_spec(self):
        # Priority orders execution; it must not change results, so it
        # cannot influence the spec or its resume fingerprint.
        base = build_fleet_spec(normalize_job_payload(dict(FAST_JOB)))
        hot = build_fleet_spec(
            normalize_job_payload(dict(FAST_JOB, priority=10))
        )
        assert hot.fingerprint() == base.fingerprint()


# ----------------------------------------------------------------------
# Fold merging
# ----------------------------------------------------------------------
class TestMergePartials:
    def collect_partials(self):
        partials = {}
        spec = build_fleet_spec(normalize_job_payload(dict(FAST_JOB)))
        Fleet(spec, on_shard=lambda p, done, total: partials.__setitem__(
            p["shard"], p)).run()
        return partials

    def test_merge_order_independent_of_completion_order(self):
        partials = self.collect_partials()
        assert len(partials) == 4
        forward = {i: partials[i] for i in sorted(partials)}
        shuffled = {i: partials[i] for i in reversed(sorted(partials))}
        assert (
            merge_partials(forward).to_dict()
            == merge_partials(shuffled).to_dict()
        )

    def test_full_merge_equals_batch_aggregate(self):
        partials = self.collect_partials()
        batch = json.loads(batch_json(dict(FAST_JOB)))
        assert merge_partials(partials).to_dict() == batch["aggregate"]

    def test_prefix_merge_is_a_prefix_aggregate(self):
        partials = self.collect_partials()
        prefix = {i: partials[i] for i in (0, 1)}
        merged = merge_partials(prefix)
        assert merged.sessions == sum(p["sessions"] for p in prefix.values())


# ----------------------------------------------------------------------
# Job store (no HTTP)
# ----------------------------------------------------------------------
class TestJobStore:
    def test_submit_persists_and_numbers(self, tmp_path):
        store = JobStore(str(tmp_path))
        first = store.submit(dict(FAST_JOB))
        second = store.submit(dict(FAST_JOB))
        assert (first.id, second.id) == ("job-0001", "job-0002")
        record = json.loads((tmp_path / "job-0001.job.json").read_text())
        assert record["status"] == "queued"
        assert record["spec"]["sessions"] == 8

    def test_submit_rejects_bad_payload(self, tmp_path):
        store = JobStore(str(tmp_path))
        with pytest.raises(EvaluationError):
            store.submit({"sessions": "many"})
        assert store.list_jobs() == []

    def test_cancel_queued_is_immediate(self, tmp_path):
        store = JobStore(str(tmp_path))
        job = store.submit(dict(FAST_JOB))
        store.cancel(job.id)
        assert job.status == "cancelled"
        record = json.loads((tmp_path / f"{job.id}.job.json").read_text())
        assert record["status"] == "cancelled"
        # Terminal event published so SSE subscribers end their streams.
        assert [name for _, name, _ in job.events] == ["cancelled"]

    def test_cancel_settled_refuses(self, tmp_path):
        store = JobStore(str(tmp_path))
        job = store.submit(dict(FAST_JOB))
        store.cancel(job.id)
        with pytest.raises(EvaluationError, match="already cancelled"):
            store.cancel(job.id)

    def test_cancel_running_requests_stop(self, tmp_path):
        store = JobStore(str(tmp_path))
        job = store.submit(dict(FAST_JOB))
        claimed = store.claim_next()
        assert claimed is job and job.status == "running"
        store.cancel(job.id)
        assert job.stop.is_set() and job.cancel_requested
        assert job.status == "running"  # the runner settles it, not cancel()

    def test_recover_requeues_unsettled(self, tmp_path):
        store = JobStore(str(tmp_path))
        job = store.submit(dict(FAST_JOB))
        # A killed daemon leaves the persisted record saying "queued"
        # even if the job was mid-run (running is never persisted).
        fresh = JobStore(str(tmp_path))
        recovered = fresh.recover()
        assert [j.id for j in recovered] == [job.id]
        assert fresh.claim_next().id == job.id

    def test_recover_result_file_wins(self, tmp_path):
        store = JobStore(str(tmp_path))
        job = store.submit(dict(FAST_JOB))
        result_text = batch_json(dict(FAST_JOB))
        (tmp_path / f"{job.id}.result.json").write_text(result_text)
        fresh = JobStore(str(tmp_path))
        (recovered,) = fresh.recover()
        assert recovered.status == "done"
        assert recovered.ok is True
        assert recovered.result_text == result_text
        # Replayable, so a stream opened after the restart still ends
        # with the result.
        assert list(recovered.events) == [(1, "result", result_text)]
        assert fresh.claim_next() is None

    def test_recover_keeps_settled_status(self, tmp_path):
        store = JobStore(str(tmp_path))
        job = store.submit(dict(FAST_JOB))
        store.cancel(job.id)
        fresh = JobStore(str(tmp_path))
        (recovered,) = fresh.recover()
        assert recovered.status == "cancelled"
        assert [name for _, name, _ in recovered.events] == ["cancelled"]
        assert fresh.claim_next() is None

    def test_claim_order_respects_priority_then_admission(self, tmp_path):
        store = JobStore(str(tmp_path))
        low = store.submit(dict(FAST_JOB))
        high = store.submit(dict(FAST_JOB, priority=5))
        mid = store.submit(dict(FAST_JOB, priority=1))
        tied = store.submit(dict(FAST_JOB, priority=5))
        order = [store.claim_next().id for _ in range(4)]
        assert order == [high.id, tied.id, mid.id, low.id]

    def test_queue_bound_rejects_then_frees(self, tmp_path):
        store = JobStore(str(tmp_path), max_queued=2)
        store.submit(dict(FAST_JOB))
        store.submit(dict(FAST_JOB))
        with pytest.raises(QueueFull):
            store.submit(dict(FAST_JOB))
        # A rejected submission leaves no trace in the state dir.
        assert len(list(tmp_path.glob("*.job.json"))) == 2
        # Claiming (queued -> running) frees an admission slot.
        store.claim_next()
        store.submit(dict(FAST_JOB))

    def test_recover_is_exempt_from_queue_bound(self, tmp_path):
        store = JobStore(str(tmp_path))
        for _ in range(3):
            store.submit(dict(FAST_JOB))
        fresh = JobStore(str(tmp_path), max_queued=1)
        assert len(fresh.recover()) == 3
        assert fresh.queue_depth() == 3


class TestTerminalEvent:
    """The settled status and the terminal SSE event become visible
    together.  Regression: the lane published the event only after
    ``settle`` had released ``job.cond``, and an SSE loop running in
    that window saw a settled job with nothing left to send, so it
    closed the stream without a terminal event.  The same held for a
    settled job recovered after a restart, whose log was empty."""

    @pytest.mark.parametrize(
        "status, name",
        [("done", "result"), ("failed", "failed"), ("cancelled", "cancelled")],
    )
    def test_settle_logs_terminal_event(self, tmp_path, status, name):
        store = JobStore(str(tmp_path))
        job = store.submit(dict(FAST_JOB))
        store.claim_next()
        store.settle(job, status, data='{"id": "x"}')
        assert job.status == status
        assert job.events[-1] == (job.seq, name, '{"id": "x"}')

    def test_lane_settle_returns_with_terminal_event_logged(
        self, tmp_path, monkeypatch
    ):
        observed = []
        settle = JobStore.settle

        def checked_settle(store, job, *args, **kwargs):
            settle(store, job, *args, **kwargs)
            with job.cond:
                observed.append((job.status, job.seq, job.events[-1]))

        monkeypatch.setattr(JobStore, "settle", checked_settle)
        app = ServeApp(
            host="127.0.0.1", port=0, state_dir=str(tmp_path / "state"),
            workers=1, quiet=True,
        ).start()
        try:
            _, detail = http_json("POST", app.url + "/jobs", FAST_JOB)
            events = sse_until_terminal(app.url + f"/jobs/{detail['id']}/events")
            assert events[-1].event == "result"
        finally:
            app.stop()
        ((status, seq, (last_seq, name, data)),) = observed
        assert (status, name, last_seq) == ("done", "result", seq)
        assert data == batch_json(FAST_JOB)

    def test_restarted_daemon_streams_settled_result(self, tmp_path):
        state_dir = str(tmp_path / "state")

        def start():
            return ServeApp(
                host="127.0.0.1", port=0, state_dir=state_dir, workers=1,
                quiet=True,
            ).start()

        first = start()
        try:
            _, detail = http_json("POST", first.url + "/jobs", FAST_JOB)
            sse_until_terminal(first.url + f"/jobs/{detail['id']}/events")
        finally:
            first.stop()
        # The second life only recovers the settled job from disk.
        second = start()
        try:
            events = sse_until_terminal(second.url + f"/jobs/{detail['id']}/events")
        finally:
            second.stop()
        assert events[-1].event == "result"
        assert events[-1].data == batch_json(FAST_JOB)


class TestTornStateFiles:
    """State files are replaced atomically but not fsync'd, so a power
    loss can leave one empty or truncated; recovery must not crash."""

    @pytest.mark.parametrize("torn", ["", '{"fleet": {"sessions": 8', None])
    def test_torn_result_reruns_to_same_bytes(self, tmp_path, torn):
        """``None``: the result document is gone although the job record
        already says ``done``."""
        state_dir = str(tmp_path / "state")

        def start():
            return ServeApp(
                host="127.0.0.1", port=0, state_dir=state_dir, workers=1,
                quiet=True,
            ).start()

        first = start()
        try:
            _, detail = http_json("POST", first.url + "/jobs", FAST_JOB)
            sse_until_terminal(first.url + f"/jobs/{detail['id']}/events")
        finally:
            first.stop()
        result_path = os.path.join(state_dir, f"{detail['id']}.result.json")
        if torn is None:
            os.remove(result_path)
        else:
            with open(result_path, "w", encoding="utf-8") as handle:
                handle.write(torn)
        second = start()
        try:
            events = sse_until_terminal(second.url + f"/jobs/{detail['id']}/events")
        finally:
            second.stop()
        assert events[-1].event == "result"
        assert events[-1].data == batch_json(FAST_JOB)
        with open(result_path, encoding="utf-8") as handle:
            assert handle.read() == batch_json(FAST_JOB)

    @pytest.mark.parametrize("quiet", [False, True])
    def test_torn_job_record_skipped_and_kept(self, tmp_path, capsys, quiet):
        store = JobStore(str(tmp_path))
        good = store.submit(dict(FAST_JOB))
        torn = tmp_path / "job-0009.job.json"
        torn.write_text('{"id": "job-0009", "spec": {"sess')
        (tmp_path / "job-0010.job.json").write_text("")
        fresh = JobStore(str(tmp_path))
        assert [job.id for job in fresh.recover(quiet=quiet)] == [good.id]
        assert torn.exists() and (tmp_path / "job-0010.job.json").exists()
        warnings = capsys.readouterr().err
        if quiet:
            assert warnings == ""
        else:
            assert str(torn) in warnings and "job-0010.job.json" in warnings


# ----------------------------------------------------------------------
# Retention GC
# ----------------------------------------------------------------------
class TestRetention:
    def settle_three(self, tmp_path):
        """Three cancelled (settled) jobs with staged settle times."""
        store = JobStore(str(tmp_path))
        jobs = [store.submit(dict(FAST_JOB)) for _ in range(3)]
        for job in jobs:
            store.cancel(job.id)
        for job, settled_at in zip(jobs, (100.0, 200.0, 300.0)):
            job.settled_at = settled_at
        return store, jobs

    def test_retain_jobs_keeps_newest_settled(self, tmp_path):
        store, jobs = self.settle_three(tmp_path)
        pruned = store.prune(retain_jobs=1)
        assert sorted(pruned) == sorted([jobs[0].id, jobs[1].id])
        assert store.get(jobs[2].id) is not None
        assert os.path.exists(store.job_path(jobs[2].id))
        for doomed in (jobs[0], jobs[1]):
            assert store.get(doomed.id) is None
            assert not os.path.exists(store.job_path(doomed.id))

    def test_retain_age_prunes_old_settles(self, tmp_path):
        store, jobs = self.settle_three(tmp_path)
        pruned = store.prune(retain_age_s=750.0, now=1000.0)
        # ages are 900 / 800 / 700 s: only the first two exceed 750.
        assert sorted(pruned) == sorted([jobs[0].id, jobs[1].id])
        assert store.get(jobs[2].id) is not None

    def test_no_policy_means_no_pruning(self, tmp_path):
        store, jobs = self.settle_three(tmp_path)
        assert store.prune() == []
        assert len(store.list_jobs()) == 3

    def test_prune_never_touches_unsettled_jobs(self, tmp_path):
        # The property the checkpoint journals depend on: even the most
        # aggressive policy only ever considers settled jobs, so a
        # queued or running job's ckpt file can never be GC'd away.
        store = JobStore(str(tmp_path))
        running = store.submit(dict(FAST_JOB))
        assert store.claim_next() is running
        queued = store.submit(dict(FAST_JOB))
        done = store.submit(dict(FAST_JOB))
        store.cancel(done.id)
        for job in (running, queued):
            with open(store.checkpoint_path(job.id), "w") as handle:
                handle.write("journal\n")
        pruned = store.prune(retain_jobs=0, retain_age_s=0.0)
        assert pruned == [done.id]
        for job in (running, queued):
            assert store.get(job.id) is not None
            assert os.path.exists(store.checkpoint_path(job.id))
            assert os.path.exists(store.job_path(job.id))
        assert not os.path.exists(store.job_path(done.id))

    def test_daemon_gc_runs_after_settle(self, tmp_path):
        app = ServeApp(
            host="127.0.0.1", port=0, state_dir=str(tmp_path / "state"),
            workers=2, retain_jobs=0, quiet=True,
        ).start()
        try:
            _, detail = http_json("POST", app.url + "/jobs", FAST_JOB)
            events = sse_until_terminal(
                app.url + f"/jobs/{detail['id']}/events"
            )
            assert events[-1].event == "result"
            assert events[-1].data == batch_json(FAST_JOB)
            # retain_jobs=0 retains nothing: the settled job is pruned
            # right after its terminal event is published.
            assert wait_for(lambda: app.store.get(detail["id"]) is None)
            assert not os.path.exists(app.store.job_path(detail["id"]))
            assert not os.path.exists(app.store.result_path(detail["id"]))
            assert not os.path.exists(app.store.checkpoint_path(detail["id"]))
        finally:
            app.stop()


# ----------------------------------------------------------------------
# HTTP end to end
# ----------------------------------------------------------------------
def http_json(method: str, url: str, body: dict | None = None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(req) as resp:
            return resp.status, json.load(resp)
    except urllib.error.HTTPError as exc:
        return exc.code, json.load(exc)


def sse_until_terminal(url: str, headers: dict | None = None, timeout=60.0):
    req = urllib.request.Request(url, headers=headers or {})
    events = []
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        lines = (raw.decode("utf-8").rstrip("\n") for raw in resp)
        for event in iter_events(lines):
            events.append(event)
            if event.event in ("result", "failed", "cancelled"):
                break
    return events


def wait_for(predicate, timeout=30.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


@pytest.fixture
def app(tmp_path):
    served = ServeApp(
        host="127.0.0.1", port=0, state_dir=str(tmp_path / "state"),
        workers=2, quiet=True,
    ).start()
    yield served
    served.stop()


class TestServeHTTP:
    def test_job_lifecycle_and_byte_identity(self, app):
        status, detail = http_json("POST", app.url + "/jobs", FAST_JOB)
        assert status == 201
        job_id = detail["id"]
        assert detail["status"] in ("queued", "running")
        assert detail["links"]["events"] == f"/jobs/{job_id}/events"

        events = sse_until_terminal(app.url + f"/jobs/{job_id}/events")
        names = [event.event for event in events]
        assert names[0] == "snapshot"
        assert names[-1] == "result"
        assert names.count("update") == 4  # one per shard

        # The contract of the whole subsystem: terminal result bytes
        # equal `repro fleet --json-out` for the same spec and seed.
        assert events[-1].data == batch_json(FAST_JOB)

        # Updates carry monotonic progress with a prefix aggregate.
        updates = [json.loads(e.data) for e in events if e.event == "update"]
        assert [u["shards_done"] for u in updates] == [1, 2, 3, 4]
        assert updates[-1]["sessions_completed"] == 8

        status, listing = http_json("GET", app.url + "/jobs")
        assert status == 200
        (summary,) = listing["jobs"]
        assert summary["status"] == "done" and summary["ok"] is True

        status, health = http_json("GET", app.url + "/healthz")
        assert status == 200 and health["jobs"] == {"done": 1}

        result_path = app.store.result_path(job_id)
        assert open(result_path).read() == batch_json(FAST_JOB)

    def test_sse_replay_after_completion(self, app):
        _, detail = http_json("POST", app.url + "/jobs", FAST_JOB)
        job_id = detail["id"]
        first = sse_until_terminal(app.url + f"/jobs/{job_id}/events")

        # Reconnect with a cursor: only events after it are replayed.
        last_update_id = first[-2].id
        replayed = sse_until_terminal(
            app.url + f"/jobs/{job_id}/events",
            headers={"Last-Event-ID": last_update_id},
        )
        assert [e.event for e in replayed] == ["result"]
        assert replayed[0].data == first[-1].data

    def test_report_and_index_render(self, app):
        _, detail = http_json("POST", app.url + "/jobs", FAST_JOB)
        job_id = detail["id"]
        sse_until_terminal(app.url + f"/jobs/{job_id}/events")
        with urllib.request.urlopen(app.url + f"/jobs/{job_id}/report") as resp:
            page = resp.read().decode("utf-8")
        assert resp.status == 200
        assert f"fleet {job_id}" in page
        assert "todo" in page and "cnet" in page  # per-cell table rendered
        with urllib.request.urlopen(app.url + "/") as resp:
            index = resp.read().decode("utf-8")
        assert job_id in index

    def test_validation_and_routing_errors(self, app):
        status, body = http_json("POST", app.url + "/jobs", {"nope": 1})
        assert status == 400 and "unknown job field" in body["error"]
        status, body = http_json(
            "POST", app.url + "/jobs", {"mix": "todo:ondemand(timer_rate_ms=nan)"}
        )
        assert status == 400 and "expects a finite number" in body["error"]
        status, body = http_json("POST", app.url + "/jobs", {"settle_s": float("nan")})
        assert status == 400 and "settle_s" in body["error"]
        status, _ = http_json("GET", app.url + "/jobs/job-9999")
        assert status == 404
        status, _ = http_json("DELETE", app.url + "/jobs/job-9999")
        assert status == 404
        status, _ = http_json("GET", app.url + "/nowhere")
        assert status == 404

    def test_cancel_done_job_conflicts(self, app):
        _, detail = http_json("POST", app.url + "/jobs", FAST_JOB)
        sse_until_terminal(app.url + f"/jobs/{detail['id']}/events")
        status, body = http_json("DELETE", app.url + f"/jobs/{detail['id']}")
        assert status == 409 and "already done" in body["error"]


# ----------------------------------------------------------------------
# Backpressure: bounded admission queue -> 429 + Retry-After
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_queue_full_returns_429_with_retry_after(self, tmp_path):
        # One lane, one queue slot; every shard hangs, so the first job
        # occupies the lane and the second fills the queue for good.
        app = ServeApp(
            host="127.0.0.1", port=0, state_dir=str(tmp_path / "state"),
            workers=1, max_concurrent_jobs=1, max_queued_jobs=1, quiet=True,
            inject_crash={"shard": [0, 1, 2, 3], "attempts": 99,
                          "mode": "sleep", "sleep_s": 300.0},
        ).start()
        try:
            _, first = http_json("POST", app.url + "/jobs", FAST_JOB)
            assert wait_for(
                lambda: app.store.get(first["id"]).status == "running"
            )
            status, _ = http_json("POST", app.url + "/jobs", FAST_JOB)
            assert status == 201
            assert app.store.queue_depth() == 1

            request = urllib.request.Request(
                app.url + "/jobs", data=json.dumps(FAST_JOB).encode(),
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            response = excinfo.value
            assert response.code == 429
            assert int(response.headers["Retry-After"]) >= 1
            body = json.load(response)
            assert "queue is full" in body["error"]
            assert body["retry_after_s"] == int(response.headers["Retry-After"])

            # The rejection is counted; nothing was persisted for it.
            with urllib.request.urlopen(app.url + "/metrics") as resp:
                scrape = resp.read().decode("utf-8")
            assert "repro_serve_jobs_rejected_total 1" in scrape
            assert len(list((tmp_path / "state").glob("*.job.json"))) == 2
        finally:
            app.stop()


class TestRetryAfterHint:
    """The Retry-After estimate itself, without HTTP in the way.

    The app is constructed but never started, so submitted jobs stay
    queued and the hint's inputs (queue depth, lane count, settled wall
    times) are fully deterministic.
    """

    def make_app(self, tmp_path, lanes: int) -> ServeApp:
        return ServeApp(
            host="127.0.0.1", port=0, state_dir=str(tmp_path / "state"),
            workers=lanes, max_concurrent_jobs=lanes, quiet=True,
        )

    def test_cold_start_scales_with_queue_depth(self, tmp_path):
        app = self.make_app(tmp_path, lanes=2)
        try:
            assert app.metrics.mean_wall_s() is None
            # Empty queue: assumed 5 s per job over 2 lanes.
            assert app.retry_after_hint() == 3
            for _ in range(8):
                app.store.submit(dict(FAST_JOB))
            assert app.store.queue_depth() == 8
            # 5 s x 8 queued / 2 lanes — a deep cold queue no longer
            # answers the same flat 5 s as an empty one.
            assert app.retry_after_hint() == 20
        finally:
            app.httpd.server_close()

    def test_cold_start_shares_the_clamp(self, tmp_path):
        app = self.make_app(tmp_path, lanes=1)
        try:
            for _ in range(150):
                app.store.submit(dict(FAST_JOB))
            # 5 s x 150 = 750 s, clamped to the same 600 s ceiling the
            # warm path uses.
            assert app.retry_after_hint() == 600
        finally:
            app.httpd.server_close()

    def test_warm_hint_uses_observed_wall_time(self, tmp_path):
        app = self.make_app(tmp_path, lanes=2)
        try:
            app.metrics.job_settled("done", wall_s=30.0)
            app.store.submit(dict(FAST_JOB))
            assert app.retry_after_hint() == 15  # 30 s x 1 / 2 lanes
        finally:
            app.httpd.server_close()


# ----------------------------------------------------------------------
# GET /metrics exposition
# ----------------------------------------------------------------------
class TestMetrics:
    def test_scrape_after_one_done_job(self, app):
        _, detail = http_json("POST", app.url + "/jobs", FAST_JOB)
        sse_until_terminal(app.url + f"/jobs/{detail['id']}/events")
        with urllib.request.urlopen(app.url + "/metrics") as resp:
            content_type = resp.headers["Content-Type"]
            text = resp.read().decode("utf-8")
        assert content_type.startswith("text/plain; version=0.0.4")
        lines = text.splitlines()
        assert "# TYPE repro_serve_jobs gauge" in lines
        assert 'repro_serve_jobs{status="done"} 1' in lines
        assert "repro_serve_queue_depth 0" in lines
        assert "repro_serve_jobs_submitted_total 1" in lines
        assert "repro_serve_jobs_rejected_total 0" in lines
        assert 'repro_serve_jobs_settled_total{status="done"} 1' in lines
        assert "repro_serve_shards_completed_total 4" in lines
        assert "repro_serve_sessions_completed_total 8" in lines
        assert 'repro_serve_pool_workers{lane="0"} 2' in lines
        assert "repro_serve_job_wall_seconds_count 1" in lines
        assert 'repro_serve_job_wall_seconds_bucket{le="+Inf"} 1' in lines

    def test_every_sample_belongs_to_a_declared_family(self, app):
        _, detail = http_json("POST", app.url + "/jobs", FAST_JOB)
        sse_until_terminal(app.url + f"/jobs/{detail['id']}/events")
        with urllib.request.urlopen(app.url + "/metrics") as resp:
            lines = resp.read().decode("utf-8").splitlines()
        families = {
            line.split()[2]: line.split()[3]
            for line in lines
            if line.startswith("# TYPE ")
        }
        assert families, "no # TYPE lines in scrape"
        for line in lines:
            if not line or line.startswith("#"):
                continue
            name = line.split("{", 1)[0].split(" ", 1)[0]
            base = name
            # Histogram samples use the family name plus a suffix.
            for suffix in ("_bucket", "_sum", "_count"):
                if name.endswith(suffix) and name[: -len(suffix)] in families:
                    base = name[: -len(suffix)]
            assert base in families, f"undeclared sample {name!r}"
            if base != name:
                assert families[base] == "histogram"

    def test_sse_subscriber_gauge_tracks_open_streams(self, tmp_path):
        app = ServeApp(
            host="127.0.0.1", port=0, state_dir=str(tmp_path / "state"),
            workers=1, quiet=True,
            inject_crash={"shard": [0, 1, 2, 3], "attempts": 99,
                          "mode": "sleep", "sleep_s": 300.0},
        ).start()
        try:
            _, detail = http_json("POST", app.url + "/jobs", FAST_JOB)
            terminal = []
            consumer = threading.Thread(
                target=lambda: terminal.extend(
                    sse_until_terminal(
                        app.url + f"/jobs/{detail['id']}/events", timeout=30
                    )[-1:]
                ),
                daemon=True,
            )
            consumer.start()
            assert wait_for(lambda: app.metrics.sse_subscribers == 1)
            # Terminal event ends the stream server-side; the gauge
            # must drain with it.
            http_json("DELETE", app.url + f"/jobs/{detail['id']}")
            consumer.join(timeout=30)
            assert terminal and terminal[0].event == "cancelled"
            assert wait_for(lambda: app.metrics.sse_subscribers == 0)
        finally:
            app.stop()


# ----------------------------------------------------------------------
# Concurrent jobs: N lanes, byte-parity with the batch CLI
# ----------------------------------------------------------------------
class TestConcurrentJobs:
    def test_three_concurrent_jobs_are_byte_identical_to_batch(self, tmp_path):
        app = ServeApp(
            host="127.0.0.1", port=0, state_dir=str(tmp_path / "state"),
            workers=3, max_concurrent_jobs=3, quiet=True,
        ).start()
        try:
            assert len(app.scheduler.lanes) == 3
            assert [pool.workers for pool in app.pools] == [1, 1, 1]
            specs = [dict(FAST_JOB, seed=seed) for seed in (11, 23, 37)]
            ids = []
            for spec in specs:
                status, detail = http_json("POST", app.url + "/jobs", spec)
                assert status == 201
                ids.append(detail["id"])
            for spec, job_id in zip(specs, ids):
                events = sse_until_terminal(
                    app.url + f"/jobs/{job_id}/events"
                )
                assert events[-1].event == "result"
                assert events[-1].data == batch_json(spec)
            _, health = http_json("GET", app.url + "/healthz")
            assert health["jobs"] == {"done": 3}
            assert health["lanes"] == 3
        finally:
            app.stop()

    def test_two_inflight_jobs_resume_after_restart(self, tmp_path):
        state_dir = str(tmp_path / "state")
        specs = [dict(FAST_JOB, seed=5), dict(FAST_JOB, seed=6)]
        # Life 1: two lanes, both jobs hang on shard 3 after real
        # progress; SIGTERM-style stop drains both mid-flight.
        first_life = ServeApp(
            host="127.0.0.1", port=0, state_dir=state_dir,
            workers=2, max_concurrent_jobs=2, quiet=True,
            inject_crash={"shard": 3, "attempts": 99,
                          "mode": "sleep", "sleep_s": 300.0},
        ).start()
        ids = []
        for spec in specs:
            _, detail = http_json("POST", first_life.url + "/jobs", spec)
            ids.append(detail["id"])
        jobs = [first_life.store.get(job_id) for job_id in ids]
        assert wait_for(lambda: all(job.shards_done >= 2 for job in jobs))
        first_life.stop()
        for job_id in ids:
            record = json.loads(
                open(os.path.join(state_dir, f"{job_id}.job.json")).read()
            )
            assert record["status"] == "queued"
            assert os.path.exists(os.path.join(state_dir, f"{job_id}.ckpt"))

        # Life 2: no fault injection; both jobs must resume from their
        # journals and finish byte-identically to the batch CLI.
        second_life = ServeApp(
            host="127.0.0.1", port=0, state_dir=state_dir,
            workers=2, max_concurrent_jobs=2, quiet=True,
        ).start()
        try:
            for spec, job_id in zip(specs, ids):
                events = sse_until_terminal(
                    second_life.url + f"/jobs/{job_id}/events"
                )
                assert events[-1].event == "result"
                assert events[-1].data == batch_json(spec)
                assert second_life.store.get(job_id).resumed_shards >= 2
        finally:
            second_life.stop()


# ----------------------------------------------------------------------
# Last-Event-ID handling: clamping and the compaction snapshot
# ----------------------------------------------------------------------
class TestCursorClamp:
    def test_clamp_cursor_values(self):
        assert clamp_cursor(None, 10) == 0
        assert clamp_cursor("", 10) == 0
        assert clamp_cursor("junk", 10) == 0
        assert clamp_cursor("-5", 10) == 0
        assert clamp_cursor("7", 10) == 7
        assert clamp_cursor("10", 10) == 10
        assert clamp_cursor("999999999999", 10) == 10

    def test_negative_cursor_replays_from_start(self, app):
        _, detail = http_json("POST", app.url + "/jobs", FAST_JOB)
        job_id = detail["id"]
        first = sse_until_terminal(app.url + f"/jobs/{job_id}/events")
        replayed = sse_until_terminal(
            app.url + f"/jobs/{job_id}/events",
            headers={"Last-Event-ID": "-12"},
        )
        # Clamped to 0 on an intact log: full replay, no snapshot.
        assert [e.event for e in replayed] == ["update"] * 4 + ["result"]
        assert replayed[-1].data == first[-1].data

    def test_beyond_log_cursor_ends_instead_of_hanging(self, app):
        # Regression: an unclamped beyond-the-log cursor made the
        # stream wait for events that can never exist.
        _, detail = http_json("POST", app.url + "/jobs", FAST_JOB)
        job_id = detail["id"]
        sse_until_terminal(app.url + f"/jobs/{job_id}/events")
        events = sse_until_terminal(
            app.url + f"/jobs/{job_id}/events",
            headers={"Last-Event-ID": "999999"},
            timeout=10,
        )
        assert events == []

    def test_reconnect_after_compaction_gets_snapshot(self, app):
        from repro.serve.jobs import EVENT_WINDOW

        _, detail = http_json("POST", app.url + "/jobs", FAST_JOB)
        job_id = detail["id"]
        first = sse_until_terminal(app.url + f"/jobs/{job_id}/events")
        early_cursor = first[1].id  # a real event id, soon compacted

        # Slide the replay window until the early events are gone.
        job = app.store.get(job_id)
        for _ in range(EVENT_WINDOW + 8):
            job.publish("update", "{}")

        replayed = sse_until_terminal(
            app.url + f"/jobs/{job_id}/events",
            headers={"Last-Event-ID": early_cursor},
            timeout=10,
        )
        # Everything missed is summarised by one snapshot; its body is
        # the full progress document, aggregate included.
        assert replayed[0].event == "snapshot"
        snapshot = json.loads(replayed[0].data)
        assert snapshot["shards_done"] == 4
        assert snapshot["sessions_completed"] == 8


# ----------------------------------------------------------------------
# HTML escaping of request- and state-dir-originated values
# ----------------------------------------------------------------------
class TestHtmlEscaping:
    def inject_job(self, app, job_id):
        """Plant a job with a hostile id, as a recovered state dir
        could (ids on disk are not constrained to the daemon format)."""
        job = Job(job_id, normalize_job_payload(dict(FAST_JOB)))
        with app.store._lock:
            app.store._jobs[job.id] = job
        return job

    def test_index_escapes_job_fields(self, app):
        self.inject_job(app, '<script>alert(1)</script>')
        page = app.render_index()
        assert "<script>" not in page
        assert "&lt;script&gt;alert(1)&lt;/script&gt;" in page

    def test_report_escapes_job_id_in_title(self, app):
        job = self.inject_job(app, '"><img src=x onerror=alert(1)>')
        page = app.render_report(job)
        assert "<img src=x" not in page
        assert "&lt;img" in page


class TestCancellation:
    def test_cancel_mid_run_settles_cancelled(self, tmp_path):
        # Shard 0 completes; shards 1..3 hang far past the test horizon,
        # so the job can only end through the cancellation path.
        app = ServeApp(
            host="127.0.0.1", port=0, state_dir=str(tmp_path / "state"),
            workers=2, quiet=True,
            inject_crash={"shard": [1, 2, 3], "attempts": 99,
                          "mode": "sleep", "sleep_s": 300.0},
        ).start()
        try:
            _, detail = http_json("POST", app.url + "/jobs", FAST_JOB)
            job_id = detail["id"]
            job = app.store.get(job_id)
            assert wait_for(lambda: job.shards_done >= 1)

            status, body = http_json("DELETE", app.url + f"/jobs/{job_id}")
            assert status == 200 and body["cancelling"]
            assert wait_for(lambda: job.status == "cancelled")

            _, final = http_json("GET", app.url + f"/jobs/{job_id}")
            assert final["status"] == "cancelled"
            assert final["progress"]["shards_done"] >= 1
            # Terminal SSE event tells streaming clients it is over.
            events = sse_until_terminal(app.url + f"/jobs/{job_id}/events")
            assert events[-1].event == "cancelled"
        finally:
            app.stop()


class TestRestartResume:
    def test_restart_resumes_byte_identical(self, tmp_path):
        state_dir = str(tmp_path / "state")
        # Life 1: shard 3 hangs, so the run can never finish here.
        first_life = ServeApp(
            host="127.0.0.1", port=0, state_dir=state_dir, workers=2,
            quiet=True,
            inject_crash={"shard": 3, "attempts": 99,
                          "mode": "sleep", "sleep_s": 300.0},
        ).start()
        _, detail = http_json("POST", first_life.url + "/jobs", FAST_JOB)
        job_id = detail["id"]
        job = first_life.store.get(job_id)
        assert wait_for(lambda: job.shards_done >= 2)
        # SIGTERM path: drain the runner, requeue the in-flight job.
        first_life.stop()
        record = json.loads(
            open(os.path.join(state_dir, f"{job_id}.job.json")).read()
        )
        assert record["status"] == "queued"
        assert os.path.exists(os.path.join(state_dir, f"{job_id}.ckpt"))

        # Life 2: same state dir, no fault injection.  Recovery must
        # resume from the journal and finish byte-identically.
        second_life = ServeApp(
            host="127.0.0.1", port=0, state_dir=state_dir, workers=2,
            quiet=True,
        ).start()
        try:
            events = sse_until_terminal(
                second_life.url + f"/jobs/{job_id}/events"
            )
            assert events[-1].event == "result"
            assert events[-1].data == batch_json(FAST_JOB)
            resumed = second_life.store.get(job_id)
            assert resumed.resumed_shards >= 2
        finally:
            second_life.stop()


class TestStartupErrors:
    def test_port_in_use_is_one_line_error(self, tmp_path):
        placeholder = socket.socket()
        placeholder.bind(("127.0.0.1", 0))
        port = placeholder.getsockname()[1]
        try:
            with pytest.raises(EvaluationError, match="cannot bind"):
                ServeApp(host="127.0.0.1", port=port,
                         state_dir=str(tmp_path), workers=1)
        finally:
            placeholder.close()

    def test_unwritable_state_dir(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        with pytest.raises(EvaluationError, match="state dir"):
            ServeApp(host="127.0.0.1", port=0, state_dir=str(blocker),
                     workers=1)


# ----------------------------------------------------------------------
# Driver hooks the daemon relies on (on_shard / stop / borrowed pool)
# ----------------------------------------------------------------------
class TestDriverHooks:
    def test_on_shard_reports_counts(self):
        spec = build_fleet_spec(normalize_job_payload(dict(FAST_JOB)))
        seen = []
        Fleet(spec, on_shard=lambda p, done, total: seen.append((done, total))).run()
        assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_stop_event_ends_run_with_stopped_flag(self):
        spec = build_fleet_spec(normalize_job_payload(dict(FAST_JOB)))
        stop = threading.Event()
        stop.set()
        result = Fleet(spec, stop=stop).run()
        assert result.stopped and not result.ok
        assert result.sessions_completed == 0

    def test_borrowed_pool_survives_runs(self):
        from repro.fleet import WorkerPool

        spec = build_fleet_spec(normalize_job_payload(dict(FAST_JOB)))
        pool = WorkerPool(2)
        try:
            first = Fleet(spec, jobs=2, pool=pool).run()
            workers = pool.pids
            second = Fleet(spec, jobs=2, pool=pool).run()
            assert pool.pids == workers  # clean runs never rebuild
            assert first.to_json() == second.to_json()
        finally:
            pool.shutdown()

    def test_pool_submit_tracks_in_flight(self):
        from repro.fleet import WorkerPool
        from repro.sim.random import derive_seed

        pool = WorkerPool(2)
        try:
            futures = [pool.submit(derive_seed, 1, str(i)) for i in range(6)]
            for future in futures:
                future.result(timeout=30)
            # Done-callbacks fire just after result() returns; the
            # gauge must drain back to zero, never below.
            assert wait_for(lambda: pool.in_flight == 0)
            assert pool.in_flight == 0
        finally:
            pool.shutdown()

    def test_fleet_run_settles_pool_in_flight(self):
        from repro.fleet import WorkerPool

        spec = build_fleet_spec(normalize_job_payload(dict(FAST_JOB)))
        pool = WorkerPool(2)
        try:
            Fleet(spec, jobs=2, pool=pool).run()
            assert wait_for(lambda: pool.in_flight == 0)
        finally:
            pool.shutdown()
