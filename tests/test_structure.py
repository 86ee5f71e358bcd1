"""Structure guards: one session builder, one session signature, one
background-load path, one place to choose trace retention, one
profiling path, one periodic primitive, one stepping engine.

Measured sessions are built by ``evaluation/runner.py``'s
``SessionExecution``; ``session.py``'s ``Session.for_page`` is the
custom-page API.  No other module under ``src/`` or ``benchmarks/``
constructs a ``Browser``, and nothing imports the deleted
``repro.workloads.background`` module (background load is the
``bgload`` scenario).  A session takes its policy as a spec and builds
it itself: under ``src/`` only those two builders reference
``POLICIES.build``.  APIs that return only results take no trace
switch: ``SessionExecution(..., trace=...)`` is the only place a caller
attaches a trace.  Folds and the active-window accountant are typed
session observers; none reads a trace record.  Observers join a session
only through ``MobilePlatform.attach``, the one writer of the
platform's per-hook lists, and each emit loop walks the list of the
hook it calls.

Configurations are ranked by capacity in one place: the platform's
configuration table (``hardware/dvfs.py``'s ``ConfigTable``); the
sampling governors step through its ladder and keep no sorted copy.

Model-based policies profile through one path: ``core/components.py``
is the only caller of ``fit_dvfs_model`` (EBS shares ``DvfsProfiler``),
``GreenWebRuntime`` forwards none of its components' knobs, the runner
reads a policy's ``stats`` hook instead of sniffing its type, and the
``target@event`` policy key is written only by ``event_key``.

Per-event policies share one keyed base: ``KeyedGovernor`` owns the
uid-to-key map, the demanding set and the input/frame hooks, and EBS
and the oracle's replay policy supply only ``config_for``.

Periodic samplers tick through ``Kernel.every``: no method under
``src/`` re-arms itself through ``schedule_in``/``schedule_at``, apart
from the listed one-shot chains (vsync, task completion, netdelay).

Populations of sessions run through one engine, ``Fleet``: under
``src/`` only the fleet driver and the ``repro serve`` daemon construct
a ``WorkerPool``; the figure matrices run as grid fleets and build none.

Simulated time moves through one stepping engine: under ``src/`` only
``Kernel.run_until`` pops the event heap, runs an event's action or
moves the kernel clock (``Kernel.__init__`` sets the start time).
"""

import ast
import dataclasses
import inspect
import pathlib
import re

from repro.core.ebs import EbsGovernor
from repro.core.governors import InteractiveGovernor, KeyedGovernor, OndemandGovernor
from repro.core.runtime import GreenWebRuntime
from repro.evaluation.runner import SessionExecution, run_workload
from repro.fleet import FleetSpec
from repro.hardware import odroid_xu_e
from repro.policies.oracle import KeyPinnedPolicy
from repro.session import Session
from repro.evaluation.folds import (
    ConfigTimelineFold,
    FrameTimelineFold,
    PredictionAccuracyFold,
)
from repro.evaluation.runner import _ActiveWindowAccountant
from repro.sim.tracing import HOOKS, SessionObserver, TraceLog

ROOT = pathlib.Path(__file__).resolve().parent.parent
BROWSER_BUILDERS = {"src/repro/evaluation/runner.py", "src/repro/session.py"}


def _modules(tops=("src", "benchmarks")):
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path.relative_to(ROOT).as_posix(), ast.parse(path.read_text())


def _called_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def test_only_the_session_builders_construct_a_browser():
    sites = {
        f"{name}:{node.lineno}": name
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _called_name(node) == "Browser"
    }
    offenders = sorted(site for site, name in sites.items() if name not in BROWSER_BUILDERS)
    assert not offenders, f"Browser(...) outside the session builders: {offenders}"
    # The scan does see the runner's own construction.
    assert "src/repro/evaluation/runner.py" in sites.values()


def test_only_the_fleet_driver_and_the_daemon_construct_a_worker_pool():
    sites = sorted(
        f"{name}:{node.lineno}"
        for name, tree in _modules(("src",))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _called_name(node) == "WorkerPool"
    )
    owners = {site.split(":")[0] for site in sites}
    assert owners == {"src/repro/fleet/driver.py", "src/repro/serve/server.py"}, sites


#: the functions that build a live policy from its spec
POLICY_BUILDERS = {
    "src/repro/evaluation/runner.py:SessionExecution.__init__",
    "src/repro/session.py:Session.for_page",
}


def test_only_the_session_builders_build_a_policy_from_its_spec():
    sites = sorted(
        f"{name}:{function}"
        for name, tree in _modules(("src",))
        for function, body in _functions(tree)
        for node in ast.walk(body)
        if isinstance(node, ast.Attribute)
        and node.attr == "build"
        and isinstance(node.value, ast.Name)
        and node.value.id == "POLICIES"
    )
    assert set(sites) == POLICY_BUILDERS, f"POLICIES.build outside the session builders: {sites}"


def _imports_background(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(
            alias.name == "repro.workloads.background"
            or alias.name.startswith("repro.workloads.background.")
            for alias in node.names
        )
    if isinstance(node, ast.ImportFrom):
        if node.module == "repro.workloads":
            return any(alias.name == "background" for alias in node.names)
        return (node.module or "").startswith("repro.workloads.background")
    return False


def test_nothing_imports_the_background_module():
    offenders = [
        f"{name}:{node.lineno}"
        for name, tree in _modules()
        for node in ast.walk(tree)
        if _imports_background(node)
    ]
    assert not offenders, f"imports of repro.workloads.background: {offenders}"
    assert not (ROOT / "src/repro/workloads/background.py").exists()


def test_trace_level_is_chosen_only_where_the_trace_is_read():
    switches = {"trace", "trace_level"}
    for api in (run_workload, Session.__init__):
        assert not switches & set(inspect.signature(api).parameters), api
    assert not switches & {field.name for field in dataclasses.fields(FleetSpec)}
    parameters = inspect.signature(SessionExecution).parameters
    assert "trace_level" not in parameters
    assert parameters["trace"].annotation == "bool"
    assert list(inspect.signature(TraceLog).parameters) == []
    assert odroid_xu_e().trace is None


def test_folds_and_the_accountant_are_typed_observers():
    for observer in (
        ConfigTimelineFold, FrameTimelineFold, PredictionAccuracyFold,
        _ActiveWindowAccountant,
    ):
        assert issubclass(observer, SessionObserver) and not hasattr(observer, "on_record")
    for reader in ("evaluation/folds.py", "evaluation/runner.py"):
        assert "TraceRecord" not in (ROOT / "src/repro" / reader).read_text(), reader
    source = "\n".join(path.read_text() for path in (ROOT / "src").rglob("*.py"))
    for gone in ("GATED_CATEGORIES", "TRACE_LEVELS", ".wants(", ".subscribe(", '"gated"'):
        assert gone not in source, gone


def _sort_key_source(node: ast.Call) -> str:
    if _called_name(node) not in ("sorted", "sort"):
        return ""
    return " ".join(ast.dump(kw.value) for kw in node.keywords if kw.arg == "key")


def test_only_the_platform_ranks_configurations_by_capacity():
    sites = sorted(
        f"{name}:{node.lineno}"
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and re.search(r"capacity|ipc", _sort_key_source(node))
    )
    assert sites, "the scan sees no capacity ranking at all"
    offenders = [s for s in sites if not s.startswith("src/repro/hardware/dvfs.py:")]
    assert not offenders, f"configurations ranked outside the platform table: {offenders}"
    platform = odroid_xu_e()
    for governor in (InteractiveGovernor(platform), OndemandGovernor(platform)):
        assert governor._table is platform.config_table
        assert not {"_configs", "_index"} & set(vars(governor)), governor


def test_only_the_components_fit_dvfs_models():
    sites = sorted(
        f"{name}:{node.lineno}"
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _called_name(node) == "fit_dvfs_model"
    )
    assert sites, "the scan sees no fit_dvfs_model call at all"
    offenders = [s for s in sites if not s.startswith("src/repro/core/components.py:")]
    assert not offenders, f"fit_dvfs_model(...) outside DvfsProfiler: {offenders}"


def test_runtime_forwards_no_component_knobs():
    properties = sorted(
        name for name, value in vars(GreenWebRuntime).items() if isinstance(value, property)
    )
    assert not properties, f"GreenWebRuntime re-exposes: {properties}"


def test_the_evaluation_layer_does_not_sniff_policy_types():
    offenders = [
        f"{name}:{node.lineno}"
        for name, tree in _modules()
        if name.startswith("src/repro/evaluation/")
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and _called_name(node) == "isinstance"
        and "GreenWebRuntime" in ast.dump(node)
    ]
    assert not offenders, f"isinstance(..., GreenWebRuntime): {offenders}"


#: an f-string writing a ``<key>@<event type>`` policy key
EVENT_KEY_FORMAT = re.compile(r"\{[^{}]*key[^{}]*\}@\{|\}@\{[^{}]*type[^{}]*\}")


def test_event_keys_are_formatted_only_by_event_key():
    sites = {
        f"{path.relative_to(ROOT).as_posix()}:{lineno}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if EVENT_KEY_FORMAT.search(line)
    }
    assert len(sites) == 1 and next(iter(sites)).startswith("src/repro/browser/engine.py:"), sites


KEYED_HOOKS = {"bind", "on_input", "on_frame_scheduled", "on_input_complete"}


def test_keyed_policies_share_one_base():
    for policy in (EbsGovernor, KeyPinnedPolicy):
        assert issubclass(policy, KeyedGovernor), policy
        assert not KEYED_HOOKS & set(vars(policy)), policy
        assert "config_for" in vars(policy), policy
    # GreenWebRuntime keeps a ``_demanding`` of its own (uid -> key, read
    # by its idle manager); it is not a keyed governor.
    writers = sorted(
        f"{name}:{node.lineno}"
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr in ("_uid_keys", "_demanding")
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and (name, node.attr) != ("src/repro/core/runtime.py", "_demanding")
    )
    assert writers, "the scan sees no keyed state at all"
    offenders = [s for s in writers if not s.startswith("src/repro/core/governors.py:")]
    assert not offenders, f"keyed state touched outside KeyedGovernor: {offenders}"


#: self-rescheduling methods that stay one-shot chains: vsync re-arms
#: before its handler and stops when idle in demand mode; a context's
#: one start path schedules the task's completion, and the one finish
#: path starts the next queued task; netdelay's delays are random
#: draws, not a period
ONE_SHOT_CHAINS = {
    "src/repro/browser/vsync.py:VsyncSource._arm_at",
    "src/repro/hardware/execution.py:ExecutionContext._start",
    "src/repro/scenarios/builtin.py:NetDelayScenario._schedule_next",
}


def _self_rearm_sites(name, tree):
    """``path:Class.method`` for each ``schedule_in``/``schedule_at`` in
    a method whose action is a ``self.<method>`` that reaches it again
    through ``self.<method>()`` calls."""
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        methods = {
            node.name: node for node in cls.body if isinstance(node, ast.FunctionDef)
        }
        callees = {
            method: {
                node.func.attr
                for node in ast.walk(body)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
            }
            for method, body in methods.items()
        }

        def reaches(start, goal):
            seen, stack = set(), [start]
            while stack:
                method = stack.pop()
                if method == goal:
                    return True
                if method not in seen:
                    seen.add(method)
                    stack.extend(callees.get(method, ()))
            return False

        for method, body in methods.items():
            for node in ast.walk(body):
                if (
                    isinstance(node, ast.Call)
                    and _called_name(node) in ("schedule_in", "schedule_at")
                    and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Attribute)
                    and isinstance(node.args[1].value, ast.Name)
                    and node.args[1].value.id == "self"
                    and reaches(node.args[1].attr, method)
                ):
                    yield f"{name}:{cls.name}.{method}"


def test_no_sampler_re_arms_itself():
    sites = {
        site
        for name, tree in _modules()
        if name.startswith("src/")
        for site in _self_rearm_sites(name, tree)
    }
    assert sites >= ONE_SHOT_CHAINS, "the scan misses a known one-shot chain"
    offenders = sorted(sites - ONE_SHOT_CHAINS)
    assert not offenders, f"re-armed through schedule_*, not Kernel.every: {offenders}"
    for sampler in ("core/governors.py", "scenarios/builtin.py"):
        assert ".every(" in (ROOT / "src/repro" / sampler).read_text(), sampler


#: where an observer could be joined to a session
OBSERVER_SCAN = ("src", "tests", "benchmarks", "examples")
#: list methods that change a list in place
LIST_WRITES = {"append", "extend", "insert", "remove", "pop", "clear", "sort", "reverse"}


def _hook_read(node):
    """``"hook"`` for an ``<expr>._hooks["hook"]`` read; ``""`` for any
    other read of a ``_hooks`` member; None otherwise."""
    if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute):
        if node.value.attr == "_hooks":
            return node.slice.value if isinstance(node.slice, ast.Constant) else ""
    return None


def _functions(tree):
    """``(Class.method or function name, node)`` for every function."""
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            if isinstance(child, ast.FunctionDef):
                prefix = f"{parent.name}." if isinstance(parent, ast.ClassDef) else ""
                yield prefix + child.name, child


def test_nothing_joins_a_session_but_attach():
    gone = {"observers", "_observers", "add_busy_observer", "_busy_observers"}
    offenders = sorted(
        f"{name}:{node.lineno}"
        for name, tree in _modules(OBSERVER_SCAN)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in gone
    )
    assert not offenders, f"the deleted observer registries: {offenders}"
    assert not hasattr(odroid_xu_e(), "observers")


def test_only_attach_writes_a_hook_list():
    writers, rebinds = [], []
    for name, tree in _modules(OBSERVER_SCAN):
        for function, body in _functions(tree):
            # Names bound to a hook list: loop targets over the
            # ``_hooks`` dict and plain aliases of one of its lists.
            lists = set()
            for node in ast.walk(body):
                if (
                    isinstance(node, ast.For)
                    and isinstance(node.iter, ast.Call)
                    and isinstance(node.iter.func, ast.Attribute)
                    and isinstance(node.iter.func.value, ast.Attribute)
                    and node.iter.func.value.attr == "_hooks"
                ):
                    lists |= {n.id for n in ast.walk(node.target) if isinstance(n, ast.Name)}
                elif isinstance(node, ast.Assign) and _hook_read(node.value) is not None:
                    lists |= {t.id for t in node.targets if isinstance(t, ast.Name)}
            for node in ast.walk(body):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in LIST_WRITES
                    and (
                        _hook_read(node.func.value) is not None
                        or isinstance(node.func.value, ast.Name) and node.func.value.id in lists
                    )
                ):
                    writers.append(f"{name}:{function}")
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target] if isinstance(node, ast.AugAssign) else []
                )
                for target in targets:
                    if _hook_read(target) is not None or (
                        isinstance(target, ast.Attribute) and target.attr == "_hooks"
                        and function not in ("MobilePlatform.__init__", "Browser.__init__")
                    ):
                        rebinds.append(f"{name}:{node.lineno}")
    assert writers == ["src/repro/hardware/platform.py:MobilePlatform.attach"], writers
    assert not rebinds, f"hook lists rebound: {rebinds}"


def test_each_emit_loop_calls_the_hook_it_walks():
    walked = []
    for name, tree in _modules(("src",)):
        for node in ast.walk(tree):
            if not isinstance(node, ast.For) or not isinstance(node.target, ast.Name):
                continue
            called = {
                call.func.attr
                for call in ast.walk(node)
                if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and isinstance(call.func.value, ast.Name)
                and call.func.value.id == node.target.id
            }
            hook = _hook_read(node.iter)
            if hook is None and not called & set(HOOKS):
                continue
            assert hook and called == {hook}, f"{name}:{node.lineno} walks {hook!r}, calls {called}"
            walked.append(hook)
    # Three engine sites, apply, predict and observe, and both busy
    # transitions.
    assert sorted(walked) == sorted([*HOOKS, "busy_changed"]), walked


#: the kernel's one firing loop
FIRING_LOOP = "src/repro/sim/kernel.py:Kernel.run_until"


def _firing_rule(node):
    """Which firing step ``node`` is: a heap pop, an event's action
    call, or a write of the kernel clock; None for anything else."""
    if isinstance(node, ast.Name) and node.id in ("heappop", "heapreplace") or (
        isinstance(node, ast.Attribute) and node.attr in ("heappop", "heapreplace")
    ):
        return "pops the heap"
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "action"
    ):
        return "runs an action"
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        if any(isinstance(t, ast.Attribute) and t.attr == "_now_us" for t in targets):
            return "moves the clock"
    return None


def test_only_run_until_fires_events():
    sites = {"pops the heap": set(), "runs an action": set(), "moves the clock": set()}
    for name, tree in _modules(("src",)):
        for function, body in _functions(tree):
            for node in ast.walk(body):
                rule = _firing_rule(node)
                if rule:
                    sites[rule].add(f"{name}:{function}")
    assert sites == {
        "pops the heap": {FIRING_LOOP},
        "runs an action": {FIRING_LOOP},
        # The constructor sets the start time.
        "moves the clock": {FIRING_LOOP, "src/repro/sim/kernel.py:Kernel.__init__"},
    }
