"""Export a :class:`~repro.sim.tracing.TraceLog` to Chrome trace format.

The JSON produced loads directly into ``chrome://tracing`` /
https://ui.perfetto.dev, giving the same kind of timeline view browser
engineers use on real Chromium: input events, frame lifecycles, DVFS
decisions, and animation spans on separate tracks.

Mapping:

* ``input`` records -> instant events on the "inputs" track;
* ``frame displayed`` records -> duration events spanning from the
  frame's VSync to its display (using the ``max_latency_us`` payload);
* ``dvfs`` / ``config`` records -> counter + instant events on the
  "cpu" track;
* ``animation`` start/end pairs -> duration events per animation.
"""

from __future__ import annotations

import json
from typing import Any

from repro.sim.tracing import TraceLog

#: trace-event "phases" (Chrome trace format)
_INSTANT = "i"
_COMPLETE = "X"
_COUNTER = "C"

_PID = 1
_TID_INPUT = 1
_TID_FRAME = 2
_TID_CPU = 3
_TID_ANIMATION = 4
_TID_TASK_BASE = 10  # per-context task tracks allocated from here


def to_chrome_trace(trace: TraceLog) -> list[dict[str, Any]]:
    """Convert a trace log into a list of Chrome trace events."""
    events: list[dict[str, Any]] = [
        _meta(_TID_INPUT, "inputs"),
        _meta(_TID_FRAME, "frames"),
        _meta(_TID_CPU, "cpu config"),
        _meta(_TID_ANIMATION, "animations"),
    ]
    open_animations: dict[tuple[int, str], int] = {}
    task_tracks: dict[str, int] = {}

    for record in trace.records:
        if record.category == "input" and record.name != "complete":
            events.append(
                {
                    "name": f"input:{record.name}",
                    "ph": _INSTANT,
                    "ts": record.time_us,
                    "pid": _PID,
                    "tid": _TID_INPUT,
                    "s": "t",
                    "args": dict(record.data),
                }
            )
        elif record.category == "frame" and record.name == "displayed":
            latency = int(record.data.get("max_latency_us", 0))
            events.append(
                {
                    "name": f"frame {record.data.get('seq', '?')}",
                    "ph": _COMPLETE,
                    "ts": record.time_us - latency,
                    "dur": latency,
                    "pid": _PID,
                    "tid": _TID_FRAME,
                    "args": {k: _plain(v) for k, v in record.data.items()},
                }
            )
        elif record.category == "config" and record.name == "applied":
            events.append(
                {
                    "name": "config",
                    "ph": _INSTANT,
                    "ts": record.time_us,
                    "pid": _PID,
                    "tid": _TID_CPU,
                    "s": "t",
                    "args": dict(record.data),
                }
            )
            events.append(
                {
                    "name": "freq_mhz",
                    "ph": _COUNTER,
                    "ts": record.time_us,
                    "pid": _PID,
                    "args": {"freq_mhz": record.data.get("freq_mhz", 0)},
                }
            )
        elif record.category == "task" and record.name == "span":
            context = str(record.data.get("context", "cpu"))
            if context not in task_tracks:
                task_tracks[context] = _TID_TASK_BASE + len(task_tracks)
                events.append(_meta(task_tracks[context], f"thread: {context}"))
            run_start = int(record.data.get("run_start_us", record.time_us))
            events.append(
                {
                    "name": str(record.data.get("label") or "task"),
                    "ph": _COMPLETE,
                    "ts": run_start,
                    "dur": max(0, record.time_us - run_start),
                    "pid": _PID,
                    "tid": task_tracks[context],
                    "args": {k: _plain(v) for k, v in record.data.items()},
                }
            )
        elif record.category == "animation":
            key = (record.data.get("uid", -1), str(record.data.get("target", "")))
            if record.name == "start":
                open_animations[key] = record.time_us
            elif record.name == "end" and key in open_animations:
                start = open_animations.pop(key)
                events.append(
                    {
                        "name": f"animation:{record.data.get('kind', '?')}",
                        "ph": _COMPLETE,
                        "ts": start,
                        "dur": record.time_us - start,
                        "pid": _PID,
                        "tid": _TID_ANIMATION,
                        "args": {k: _plain(v) for k, v in record.data.items()},
                    }
                )
    return events


def export_chrome_trace(trace: TraceLog, path: str) -> int:
    """Write the Chrome trace JSON to ``path``; returns event count."""
    events = to_chrome_trace(trace)
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    return len(events)


def _meta(tid: int, name: str) -> dict[str, Any]:
    return {
        "name": "thread_name",
        "ph": "M",
        "pid": _PID,
        "tid": tid,
        "args": {"name": name},
    }


def _plain(value: Any) -> Any:
    """JSON-encodable payload values (tuples -> lists, etc.)."""
    if isinstance(value, tuple):
        return list(value)
    return value
