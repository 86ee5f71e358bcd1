"""Full-trace parity: the retained record stream, byte for byte.

The results goldens pin what a session computes; this pins what a
traced session *records*, the stream ``--export-trace``, ``repro
analyze`` and the tracking ablation read.  Each pin is a SHA-256 over
the canonical JSON of ``[(time_us, category, name, data)]`` for every
record, with its record count.  The four cells cover eight of the ten
categories (input, config, frame, dvfs, callback, greenweb, animation,
scenario); console records are covered by
``tests/test_browser_script_effects.py``.

``TASK_SPAN_PINS`` pin the opt-in ``task/span`` stream (every task's
context, label, submit time, run start and duration) of two cells run
with ``record_task_spans``: the execution spine's task order and timing,
stream-wide.  The ``camanjs:ondemand:bgload`` cell freezes and resumes
tasks mid-switch.
"""

import hashlib
import json

import pytest

from repro.evaluation.runner import SessionExecution
from repro.workloads.registry import build_app

#: (app, policy, scenario, trace kind, seed) -> (record count, sha256)
PINS = {
    ("paperjs", "greenweb", "imperceptible", "full", 1): (
        3860, "a97df0d8718c9a9df16899816182b8b5b848d4302cce2e4074ad69e4d08c5e0c"
    ),
    ("bbc", "ondemand", "bgload", "micro", 1): (
        4060, "8aa97f8586579308536b0b6494a3eeb6cae597ec6223264a266f05c08ce11033"
    ),
    ("cnet", "greenweb", "thermal(cap_mhz=1100,trip_ms=50,hot_load=0.2)", "full", 0): (
        1567, "d32d316119b2f401bbd86fe6335ef88352409905b1c3e66e5f26e32908a57fb9"
    ),
    ("todo", "ebs", "netdelay", "micro", 0): (
        71, "241fd1dfdc7e7787deb985e5978cd5c232081263f3df7bf7e3eae99882a3594f"
    ),
}

#: the same key -> (task span count, sha256 of the task/span records)
TASK_SPAN_PINS = {
    ("paperjs", "greenweb", "imperceptible", "full", 1): (
        3808, "0ac926eccaa71c2990b394c652d36d68ebce1531f5ddc3a55a46fa6a0a77498c"
    ),
    ("camanjs", "ondemand", "bgload", "micro", 1): (
        173, "8c3fdb11699f50716e80f4f231c7cf9bc631dd6b007a6f55ca12cc453f22df94"
    ),
}


def traced_stream(app, policy, scenario, trace_kind, seed, task_spans=False):
    """The cell's retained records as (time_us, category, name, data)
    tuples; with ``task_spans``, only its ``task/span`` records."""
    execution = SessionExecution(
        build_app(app, seed), policy, scenario, trace_kind=trace_kind, seed=seed, trace=True
    )
    execution.platform.record_task_spans = task_spans
    execution.run()
    return [
        (record.time_us, record.category, record.name, record.data)
        for record in execution.platform.trace
        if not task_spans or record.category == "task"
    ]


def pin_of(stream):
    """(record count, sha256 of the canonical JSON) of a stream."""
    blob = json.dumps(stream, sort_keys=True, separators=(",", ":"))
    return len(stream), hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def streams():
    """Every pinned cell's stream, run once for both tests."""
    return {cell: traced_stream(*cell) for cell in PINS}


@pytest.mark.parametrize("cell", list(PINS), ids=lambda cell: ":".join(map(str, cell)))
def test_retained_stream_matches_pin(streams, cell):
    assert pin_of(streams[cell]) == PINS[cell]


@pytest.mark.parametrize(
    "cell", list(TASK_SPAN_PINS), ids=lambda cell: ":".join(map(str, cell))
)
def test_task_span_stream_matches_pin(cell):
    assert pin_of(traced_stream(*cell, task_spans=True)) == TASK_SPAN_PINS[cell]


def test_pins_cover_eight_categories(streams):
    categories = {
        category
        for stream in streams.values()
        for _time, category, _name, _data in stream
    }
    assert categories == {
        "input", "config", "frame", "dvfs", "callback", "greenweb", "animation", "scenario"
    }
