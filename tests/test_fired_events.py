"""Pinned kernel-event counts for four sampler-heavy sessions and one
frame-heavy one.

``sim_events_per_s`` in the benchmark counts *simulated* kernel events
(``Kernel.events_fired``): the callbacks that ran plus the quiet
sampler ticks the kernel applied in closed form (``events_elided``), so
the number a session simulates is part of what that metric means.  The
sampler cells pin the total and the sampler-tick, scenario-tick and
DVFS-apply events, counting periodic (``Kernel.every``) ticks as well
as one-shot events, each as fired plus elided, and pin the elided part
by label; the frame cell (a ``frames`` workload cell) pins the total
and the VSync ticks and task completions of the frame pipeline's two
threads:
a change that skips, coalesces or adds a tick, a switch or a task must
move this test on purpose, together with the metric.  A change that
elides more or fewer ticks moves only the elided pins.
"""

import collections

import pytest

from repro.evaluation.runner import run_workload
from repro.sim.kernel import Kernel


def fired_events(monkeypatch, app, policy, scenario, trace_kind):
    """``(events_fired, fired count by label, elided count by label)``
    of one seed-1 session; a ``dvfs->CONFIG`` label counts as ``dvfs``.
    The wrapper sees only the ticks whose action runs."""
    fired = collections.Counter()
    kernels = []
    schedule_in, schedule_at, every = Kernel.schedule_in, Kernel.schedule_at, Kernel.every

    def counted(kernel, action, label):
        if kernel not in kernels:
            kernels.append(kernel)
        key = label.partition("->")[0]

        def fire():
            fired[key] += 1
            action()

        return fire

    monkeypatch.setattr(
        Kernel, "schedule_in",
        lambda self, delay, action, label="": schedule_in(
            self, delay, counted(self, action, label), label
        ),
    )
    monkeypatch.setattr(
        Kernel, "schedule_at",
        lambda self, time_us, action, label="": schedule_at(
            self, time_us, counted(self, action, label), label
        ),
    )
    # A periodic series wraps its action once; each fired tick counts.
    monkeypatch.setattr(
        Kernel, "every",
        lambda self, period_us, action, label="", **keywords: every(
            self, period_us, counted(self, action, label), label, **keywords
        ),
    )
    run_workload(app, policy, scenario, trace_kind=trace_kind, seed=1)
    (kernel,) = kernels
    return kernel.events_fired, fired, collections.Counter(kernel.events_elided)


@pytest.mark.parametrize(
    "cell, trace_kind, total, sampler, ticks, applies",
    [
        # cell: app, policy, scenario, its simulated ``scenario/NAME``
        # ticks and the elided ticks by label
        (("bbc", "ondemand", "bgload", 240, {"ondemand": 423}),
         "micro", 5_543, "ondemand", 3_000, 2_021),
        (("cnet", "interactive", "imperceptible", 0, {"interactive": 2_086}),
         "full", 5_513, "interactive", 2_454, 2),
        (("bbc", "ondemand", "thermal", 2_400,
          {"ondemand": 2_724, "scenario/thermal": 2_262}),
         "micro", 5_597, "ondemand", 3_000, 154),
        (("camanjs", "ondemand", "bgload", 144, {"ondemand": 268}),
         "micro", 3_363, "ondemand", 1_800, 1_225),
    ],
)
def test_fired_events_are_pinned(
    monkeypatch, cell, trace_kind, total, sampler, ticks, applies
):
    app, policy, scenario, scenario_ticks, elided_by_label = cell
    events_fired, fired, elided = fired_events(
        monkeypatch, app, policy, scenario, trace_kind
    )
    assert elided == elided_by_label
    assert events_fired == sum(fired.values()) + sum(elided.values()) == total
    simulated = fired + elided
    assert simulated[sampler] == ticks
    assert simulated[f"scenario/{scenario}"] == scenario_ticks
    assert simulated["dvfs"] == applies


@pytest.mark.parametrize(
    "cell, trace_kind, total, labels",
    [
        # cell: app, policy, scenario; labels: fired count by label
        (("paperjs", "greenweb", "imperceptible"), "full", 5_486,
         {"vsync": 545, "renderer_main": 3_266, "compositor": 542}),
    ],
)
def test_frame_pipeline_events_are_pinned(monkeypatch, cell, trace_kind, total, labels):
    events_fired, fired, elided = fired_events(monkeypatch, *cell, trace_kind)
    assert not elided
    assert events_fired == sum(fired.values()) == total
    assert {label: fired[label] for label in labels} == labels
