"""The observer seam: ``MobilePlatform.attach`` and per-hook lists.

An observer joins a session only through ``attach``, which adds it to
the list of each :class:`SessionObserver` hook its class overrides, in
attach order.  Each emit site walks only its own hook's list, so a
results-only session never calls a base no-op hook, and an observer
attached after the browser is built still sees every fact.
"""

import pytest

from repro.core.governors import InteractiveGovernor
from repro.errors import HardwareError
from repro.evaluation.folds import FrameTimelineFold
from repro.evaluation.runner import SessionExecution
from repro.hardware.platform import odroid_xu_e
from repro.sim.tracing import HOOKS, SessionObserver, TraceLog
from repro.workloads.registry import build_app

FACT_HOOKS = tuple(hook for hook in HOOKS if hook != "busy_changed")


def execution(app, governor, scenario, trace_kind, seed, traced=False):
    """A built, not yet run, session of one cell (4 s settle)."""
    return SessionExecution(
        build_app(app, seed), governor, scenario, trace_kind=trace_kind, seed=seed,
        trace=traced,
    )


# ----------------------------------------------------------------------
# A results-only session calls no base no-op hook
# ----------------------------------------------------------------------
@pytest.fixture
def base_calls(monkeypatch):
    """Counts calls into SessionObserver's own (no-op) hooks; patched
    before any session is built, so attach sees the patched base."""
    calls = {}
    for hook in HOOKS:
        def counting(self, *args, hook=hook):
            calls[hook] = calls.get(hook, 0) + 1
        monkeypatch.setattr(SessionObserver, hook, counting)
    return calls


def test_greenweb_full_session_calls_no_base_hook(base_calls):
    """Predict, observe, dispatch, completion, frame and apply sites."""
    session = execution("paperjs", "greenweb", "imperceptible", "full", 0)
    session.run()
    result = session.finish()
    assert result.frames > 0 and result.inputs > 0
    assert result.runtime_stats["predictions"] > 0
    assert session._config_fold.applied and session._accountant.windows
    assert base_calls == {}


def test_interactive_session_calls_no_base_hook(base_calls, monkeypatch):
    """The busy-transition site: only the governor observes it."""
    transitions = []
    original = InteractiveGovernor.busy_changed

    def counted(self, time_us, busy_count, previous_count):
        transitions.append((busy_count, previous_count))
        original(self, time_us, busy_count, previous_count)

    monkeypatch.setattr(InteractiveGovernor, "busy_changed", counted)
    session = execution("cnet", "interactive", "imperceptible", "micro", 0)
    session.run()
    assert session.finish().frames > 0
    assert (1, 0) in transitions and (0, 1) in transitions
    assert base_calls == {}


def test_sampling_governor_applies_call_no_base_hook(base_calls):
    """A config_applied-heavy cell: every apply reaches only the fold."""
    session = execution("camanjs", "ondemand", "bgload", "micro", 1)
    session.run()
    session.finish()
    assert len(session._config_fold.applied) == 1225
    assert base_calls == {}


# ----------------------------------------------------------------------
# Per-hook membership and order
# ----------------------------------------------------------------------
def test_each_observer_is_in_exactly_the_lists_of_its_hooks():
    """Trace first on each fact hook, then the runner's fold and
    accountant on theirs; the governor only on busy transitions."""
    session = execution("cnet", "interactive", "imperceptible", "micro", 0, traced=True)
    trace, hooks = session.platform.trace, session.platform._hooks
    fold, accountant = session._config_fold, session._accountant
    assert isinstance(trace, TraceLog)
    assert hooks == {
        "input_dispatched": [trace, accountant],
        "input_completed": [trace, accountant],
        "config_applied": [trace, fold],
        "frame_displayed": [trace],
        "predicted": [trace],
        "observed": [trace],
        "busy_changed": [session.policy],
    }
    assert [hook for hook in HOOKS if trace in hooks[hook]] == list(FACT_HOOKS)


def test_attach_follows_the_class_and_keeps_attach_order():
    class Frames(SessionObserver):
        def frame_displayed(self, time_us, frame):
            pass

    class InheritedFrames(Frames):
        pass

    class Busy(SessionObserver):
        def busy_changed(self, time_us, busy_count, previous_count):
            pass

    platform = odroid_xu_e()
    first, second, busy = Frames(), InheritedFrames(), Busy()
    for observer in (first, busy, second):
        platform.attach(observer)
    assert platform._hooks["frame_displayed"] == [first, second]
    assert platform._hooks["busy_changed"] == [busy]
    assert sum(map(len, platform._hooks.values())) == 3


def test_a_trace_given_to_the_platform_observes_first():
    trace = TraceLog()
    platform = odroid_xu_e(trace=trace)
    platform.attach(FrameTimelineFold())
    for hook in FACT_HOOKS:
        assert platform._hooks[hook][:1] == [trace], hook
    assert platform._hooks["busy_changed"] == []


def test_a_fold_attached_after_the_browser_sees_every_frame():
    """``repro analyze`` attaches its fold to a built session."""
    session = execution("cnet", "perf", "imperceptible", "micro", 0)
    frames = FrameTimelineFold()
    session.platform.attach(frames)
    session.run()
    result = session.finish()
    assert result.frames > 0 and frames.stats().frame_count == result.frames


@pytest.mark.parametrize(
    "not_an_observer",
    [object(), lambda busy_count, previous_count: None, FrameTimelineFold],
)
def test_attach_refuses_a_non_observer(not_an_observer):
    platform = odroid_xu_e()
    with pytest.raises(HardwareError, match="not a SessionObserver"):
        platform.attach(not_an_observer)
    assert not any(platform._hooks.values())
