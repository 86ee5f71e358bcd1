"""Per-layer host-time attribution, measured from outside the program.

The tracer times calls into each layer's public functions by replacing
them with span wrappers for the duration of a traced run; nothing in
``src/`` knows it is being measured.  A span's *self* time is its
duration minus the time its child spans cover, so the self times of all
layers plus the root span's own self time (``unattributed``) add up to
the root's host time exactly.

Spans are accumulated per thread (no lock on the hot path) and summed
when read.  A bounded sample of raw spans (name, start, end, parent) is
kept in memory for the trace file written when the run ends.

:class:`SessionProbe` is separate from the spans: it reads public
counters off each session after :meth:`SessionExecution.finish`, costs
one extra Python call per session, and is installed in timed runs too.
On serve the sessions run in pool workers, so :class:`ShardProbe` runs
every shard through :func:`probed_shard`, which installs the probe in
the worker and returns its counts (and the worker's time) with each
shard.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
import types
from concurrent.futures import Future
from typing import Callable, Iterable, Optional

#: Layers a session's host time is attributed to: (name, group, targets).
#: A target is ``"module:function"`` or ``"module:Class.method"``; a
#: method is wrapped on the class and on every subclass that overrides
#: it.  Groups: ``setup`` builds the session world, ``run`` is the
#: execution spine, ``other`` is everything else on the session path.
SESSION_LAYERS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("workloads.build_app", "setup", ("repro.workloads.registry:build_app",)),
    ("core.annotations.from_stylesheet", "setup",
     ("repro.core.annotations:AnnotationRegistry.from_stylesheet",)),
    ("hardware.platform.build", "setup", ("repro.hardware.platform:odroid_xu_e",)),
    ("policies.build", "setup", ("repro.policies.registry:PolicyRegistry.build",)),
    ("scenarios.build", "setup",
     ("repro.scenarios.registry:ScenarioRegistry.build", "repro.scenarios.base:Scenario.bind")),
    ("browser.build", "setup", ("repro.browser.engine:Browser.__init__",)),
    ("evaluation.setup", "setup", ("repro.evaluation.runner:SessionExecution.__init__",)),
    ("sim.kernel.run", "run", ("repro.sim.kernel:Kernel.run_until",)),
    ("hardware.execution.submit", "run", ("repro.hardware.execution:ExecutionContext.submit",)),
    ("browser.dispatch_event", "run", ("repro.browser.engine:Browser.dispatch_event",)),
    ("core.predictor.predict", "run", ("repro.core.predictor:ConfigPredictor.predict",)),
    ("core.components.feedback", "run",
     ("repro.core.components:FeedbackController.feedback",
      "repro.core.components:DvfsProfiler.observe")),
    ("hardware.dvfs.request", "run", ("repro.hardware.dvfs:DvfsController.request",)),
    ("hardware.energy.on_power_change", "run",
     ("repro.hardware.energy:EnergyMeter.on_power_change",)),
    # Scenario.view has no caller in the program; the per-frame query
    # policies actually make is the operative target.
    ("scenarios.target", "other", ("repro.scenarios.base:Scenario.operative_target_ms",)),
    ("sim.tracing.emit", "other", ("repro.sim.tracing:TraceLog.emit",)),
    ("evaluation.finish", "other", ("repro.evaluation.runner:SessionExecution.finish",)),
)

#: Daemon-side layers of the serve path, timed in the daemon's process.
SERVE_LAYERS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("fleet.run", "serve", ("repro.fleet.driver:Fleet.run",)),
    ("fleet.checkpoint.record", "serve", ("repro.fleet.checkpoint:CheckpointStore.record",)),
    ("fleet.aggregate.merge", "serve",
     ("repro.fleet.aggregate:FleetAggregate.from_dict",
      "repro.fleet.aggregate:FleetAggregate.merge")),
    ("serve.settle", "serve", ("repro.serve.jobs:JobStore.settle",)),
)

#: Functions hooked for timestamps rather than spans: (layer, target).
SERVE_MARKS: tuple[tuple[str, str], ...] = (
    ("serve.queue_wait", "repro.serve.jobs:JobStore.submit"),
    ("serve.queue_wait", "repro.serve.jobs:JobStore.claim_next"),
    ("serve.sse_tail", "repro.serve.jobs:JobStore.settle"),
)

#: Where :class:`ShardProbe` swaps in :func:`probed_shard`.
SHARD_TARGET = "repro.fleet.pool:WorkerPool.submit"

def resolve(target: str):
    """``"module:Qual.name"`` -> (owner, attribute name)."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object, bool]] = []

    def replace(self, owner, name: str, value) -> None:
        present = name in vars(owner)
        self._undo.append((owner, name, vars(owner).get(name), present))
        setattr(owner, name, value)

    def wrap(self, target: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``target`` by ``make(original)`` wherever it is bound.

        A module function is replaced in every loaded ``repro`` module
        that imported it by name; a method on its class and on every
        subclass that defines its own version.
        """
        owner, name = resolve(target)
        if isinstance(owner, type):
            for cls in _with_subclasses(owner):
                raw = vars(cls).get(name)
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    value = classmethod(make(raw.__func__))
                elif isinstance(raw, staticmethod):
                    value = staticmethod(make(raw.__func__))
                else:
                    value = make(raw)
                self.replace(cls, name, value)
            return
        original = getattr(owner, name)
        wrapped = make(original)
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "")
            if module_name != "repro" and not module_name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.replace(module, attr, wrapped)

    def undo(self) -> None:
        while self._undo:
            owner, name, old, present = self._undo.pop()
            if present:
                setattr(owner, name, old)
            else:
                delattr(owner, name)


def _with_subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(c for c in _with_subclasses(sub) if c not in found)
    return found


class _ThreadState:
    __slots__ = ("stack", "self_ns", "calls")

    def __init__(self, size: int) -> None:
        #: open spans: [slot, child_ns, raw_index]
        self.stack: list[list] = []
        self.self_ns = [0] * size
        self.calls = [0] * size


class Tracer:
    """Span accumulator over a fixed set of layer names."""

    def __init__(self, names: Iterable[str], raw_limit: int = 0) -> None:
        self.names = list(dict.fromkeys(names))
        self.slot = {name: index for index, name in enumerate(self.names)}
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        #: raw span sample: [name, start_ns, end_ns, parent index or -1]
        self.raw: list[list] = []
        self.raw_limit = raw_limit
        #: durations measured outside a span (across threads), by layer
        self.extra_ns: dict[str, int] = {}
        self.extra_calls: dict[str, int] = {}

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(len(self.names))
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def span(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so each call is one span of layer ``name``.

        A call made while a span of the same layer is already open on
        this thread (a method calling its own override) stays inside the
        outer span instead of opening a nested one.
        """
        slot = self.slot[name]
        state_of = self._state
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = state_of()
            stack = state.stack
            if stack and stack[-1][0] == slot:
                return fn(*args, **kwargs)
            frame = [slot, 0, self._open_raw(slot, stack)]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                state.self_ns[slot] += elapsed - frame[1]
                state.calls[slot] += 1
                if stack:
                    stack[-1][1] += elapsed
                if frame[2] is not None:
                    self.raw[frame[2]][2] = self.raw[frame[2]][1] + elapsed

        traced.__perfbench_layer__ = name
        return traced

    def _open_raw(self, slot: int, stack: list) -> Optional[int]:
        if len(self.raw) >= self.raw_limit:
            return None
        parent = stack[-1][2] if stack and stack[-1][2] is not None else -1
        with self._lock:
            self.raw.append([self.names[slot], time.perf_counter_ns(), None, parent])
            return len(self.raw) - 1

    def run(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside one span of ``name`` (a root span)."""
        return self.span(name, fn)(*args, **kwargs)

    def add(self, name: str, elapsed_ns: int, calls: int = 1) -> None:
        """Account a duration measured outside a span (cross-thread)."""
        with self._lock:
            self.extra_ns[name] = self.extra_ns.get(name, 0) + elapsed_ns
            self.extra_calls[name] = self.extra_calls.get(name, 0) + calls

    def totals(self) -> dict[str, tuple[int, int]]:
        """Layer name -> (self ns, calls), summed over every thread."""
        with self._lock:
            states = list(self._states)
            out = {name: [0, 0] for name in self.names}
            for state in states:
                for index, name in enumerate(self.names):
                    out[name][0] += state.self_ns[index]
                    out[name][1] += state.calls[index]
            for name, value in self.extra_ns.items():
                entry = out.setdefault(name, [0, 0])
                entry[0] += value
                entry[1] += self.extra_calls[name]
        return {name: (value[0], value[1]) for name, value in out.items()}


def diff_totals(after: dict, before: dict) -> dict[str, tuple[int, int]]:
    return {
        name: (ns - before.get(name, (0, 0))[0], calls - before.get(name, (0, 0))[1])
        for name, (ns, calls) in after.items()
    }


class SessionProbe:
    """Public per-session counters, read after each session finishes."""

    FIELDS = ("sessions", "events", "frames", "inputs", "switches", "predictions")

    def __init__(self) -> None:
        self.counts = dict.fromkeys(self.FIELDS, 0)

    def install(self, patches: Patches) -> None:
        patches.wrap(
            "repro.evaluation.runner:SessionExecution.finish", self._make_reader
        )

    def _make_reader(self, finish: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(finish)
        def read_counters(execution):
            result = finish(execution)
            platform = execution.platform
            counts["sessions"] += 1
            counts["events"] += platform.kernel.events_fired
            counts["frames"] += execution.browser.stats.frames
            counts["inputs"] += execution.browser.stats.inputs
            counts["switches"] += platform.dvfs.freq_switches + platform.dvfs.migrations
            if result.runtime_stats:
                counts["predictions"] += result.runtime_stats["predictions"]
            return result

        read_counters.__perfbench_layer__ = "probe"
        return read_counters

    def snapshot(self) -> dict[str, int]:
        return dict(self.counts)


def all_targets() -> list[tuple[str, str]]:
    """Every (layer, target) the benchmark ever wraps."""
    pairs = [
        (name, target)
        for name, _group, targets in SESSION_LAYERS + SERVE_LAYERS
        for target in targets
    ]
    return pairs + list(SERVE_MARKS) + [
        ("fleet.shard", SHARD_TARGET),
        ("probe", "repro.evaluation.runner:SessionExecution.finish"),
    ]


def find_installed() -> list[str]:
    """Every benchmark wrapper currently bound anywhere in the loaded
    ``repro`` modules and their classes (none, outside a run)."""
    found = []
    for module in list(sys.modules.values()):
        module_name = getattr(module, "__name__", "")
        if module_name != "repro" and not module_name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            owners = [(attr, value)]
            if isinstance(value, type):
                owners = [(f"{attr}.{name}", raw) for name, raw in vars(value).items()]
            for where, raw in owners:
                fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                if isinstance(fn, types.FunctionType) and hasattr(fn, "__perfbench_layer__"):
                    found.append(f"{module_name}:{where}")
    return found


def session_layer_names() -> list[str]:
    return [name for name, _group, _targets in SESSION_LAYERS]


def install_session_layers(tracer: Tracer, patches: Patches) -> None:
    for name, _group, targets in SESSION_LAYERS:
        for target in targets:
            patches.wrap(target, functools.partial(tracer.span, name))


# ----------------------------------------------------------------------
# Serve: shards through the probe, daemon-side spans and marks
# ----------------------------------------------------------------------
class ShardProbe:
    """Runs every fleet shard through :func:`probed_shard` and collects
    what each returns: the session counters, the worker's host time and,
    while :attr:`tracer` is set, the worker-side session layers.

    Installed by the serve driver in timed and traced runs alike (it
    reads counters and times whole shards; the span wrappers inside the
    workers are installed only while :attr:`tracer` is set).  The future
    the fleet driver sees resolves to the plain shard result, as before.
    """

    FIELDS = SessionProbe.FIELDS

    def __init__(self) -> None:
        self.counts = dict.fromkeys(self.FIELDS, 0)
        #: worker pid -> host ns spent running shards
        self.worker_ns: dict[int, int] = {}
        #: set while a traced run is on; shard and layer times go here
        self.tracer: Optional[Tracer] = None
        self._lock = threading.Lock()

    def install(self, patches: Patches) -> None:
        from repro.fleet.driver import run_shard_job

        patches.wrap(SHARD_TARGET, functools.partial(self._probed_submit, shard_fn=run_shard_job))

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self.counts)

    def worker_snapshot(self) -> dict[int, int]:
        with self._lock:
            return dict(self.worker_ns)

    def _probed_submit(self, submit: Callable, shard_fn: Callable) -> Callable:
        @functools.wraps(submit)
        def probed(pool, fn, *args):
            if fn is not shard_fn:
                return submit(pool, fn, *args)
            tracer = self.tracer
            start = time.perf_counter_ns()
            inner = submit(pool, probed_shard, *args, tracer is not None)
            outer: Future = Future()

            def settle(done: Future) -> None:
                if done.cancelled():
                    outer.cancel()
                    return
                error = done.exception()
                if error is not None:
                    outer.set_exception(error)
                    return
                partial, pid, worker_ns, layers, counts = done.result()
                with self._lock:
                    for key, value in counts.items():
                        self.counts[key] += value
                    self.worker_ns[pid] = self.worker_ns.get(pid, 0) + worker_ns
                if tracer is not None:
                    elapsed = time.perf_counter_ns() - start
                    tracer.add("fleet.shard", elapsed)
                    tracer.add("fleet.ipc", elapsed - worker_ns)
                    tracer.add("fleet.worker", worker_ns)
                    for name, (ns, calls) in layers.items():
                        tracer.add(name, ns, calls)
                outer.set_result(partial)

            inner.add_done_callback(settle)
            return outer

        probed.__perfbench_layer__ = "fleet.shard"
        return probed


class ServeTracer:
    """Serve-path layers in the daemon's process, plus the worker-side
    session layers :class:`ShardProbe` collects while this is installed."""

    def __init__(self, shards: ShardProbe) -> None:
        names = [name for name, _g, _t in SERVE_LAYERS]
        names += ["serve.queue_wait", "fleet.shard", "fleet.ipc"]
        names += session_layer_names()
        self.tracer = Tracer(names, raw_limit=5000)
        self.patches = Patches()
        self.shards = shards
        self._submitted: dict[str, float] = {}
        #: job id -> perf_counter when its terminal settle returned
        self.settled_at: dict[str, float] = {}

    def install(self) -> None:
        for name, _group, targets in SERVE_LAYERS:
            for target in targets:
                self.patches.wrap(target, functools.partial(self.tracer.span, name))
        marks = {
            "repro.serve.jobs:JobStore.submit": self._mark_submit,
            "repro.serve.jobs:JobStore.claim_next": self._mark_claim,
            "repro.serve.jobs:JobStore.settle": self._mark_settle,
        }
        for _layer, target in SERVE_MARKS:
            self.patches.wrap(target, marks[target])
        self.shards.tracer = self.tracer

    def uninstall(self) -> None:
        self.shards.tracer = None
        self.patches.undo()

    def _mark_submit(self, submit: Callable) -> Callable:
        @functools.wraps(submit)
        def marked(store, payload):
            job = submit(store, payload)
            self._submitted[job.id] = time.perf_counter()
            return job

        marked.__perfbench_layer__ = "serve.queue_wait"
        return marked

    def _mark_claim(self, claim_next: Callable) -> Callable:
        @functools.wraps(claim_next)
        def marked(store, *args, **kwargs):
            job = claim_next(store, *args, **kwargs)
            if job is not None and job.id in self._submitted:
                waited = time.perf_counter() - self._submitted.pop(job.id)
                self.tracer.add("serve.queue_wait", int(waited * 1e9))
            return job

        marked.__perfbench_layer__ = "serve.queue_wait"
        return marked

    def _mark_settle(self, settle: Callable) -> Callable:
        @functools.wraps(settle)
        def marked(store, job, *args, **kwargs):
            result = settle(store, job, *args, **kwargs)
            self.settled_at[job.id] = time.perf_counter()
            return result

        marked.__perfbench_layer__ = "serve.sse_tail"
        return marked


#: The worker process's probe, installed by its first shard, and its
#: session-layer tracer with the patches that install it (while traced).
_WORKER: dict = {}


def probed_shard(payload: dict, traced: bool):
    """Worker-side entry: run one shard with the session probe, and with
    the session layers traced when ``traced``.

    Returns (partial, worker pid, worker ns, layer totals of this shard,
    probe counts of this shard).  Module-level so the pool pickles it by
    reference.
    """
    from repro.fleet.worker import run_shard_job

    if not _WORKER:
        _WORKER["probe"] = SessionProbe()
        _WORKER["probe"].install(Patches())
        _WORKER["tracer"] = Tracer(session_layer_names())
        _WORKER["layers"] = None
    probe, tracer = _WORKER["probe"], _WORKER["tracer"]
    if traced and _WORKER["layers"] is None:
        _WORKER["layers"] = Patches()
        install_session_layers(tracer, _WORKER["layers"])
    elif not traced and _WORKER["layers"] is not None:
        _WORKER["layers"].undo()
        _WORKER["layers"] = None
    before, counts_before = tracer.totals(), probe.snapshot()
    start = time.perf_counter_ns()
    partial = run_shard_job(payload)
    worker_ns = time.perf_counter_ns() - start
    counts = {key: value - counts_before[key] for key, value in probe.snapshot().items()}
    layers = diff_totals(tracer.totals(), before) if traced else {}
    return partial, os.getpid(), worker_ns, layers, counts
