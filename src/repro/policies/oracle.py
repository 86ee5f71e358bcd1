"""The ``oracle`` post-hoc policy: a lower-bound baseline.

No online policy can beat a scheduler that already knows the workload.
The oracle exploits the simulator's determinism: it replays the same
(app, seed, trace) repeatedly, pinning each annotated event key to each
of the platform's configurations in turn, and keeps the cheapest
assignment whose QoS is no worse than running that key flat-out.  The
final replay under the winning assignment is the reported run — the
minimum energy *this* per-key-constant configuration family can reach
while meeting QoS, which bounds what GreenWeb's online
profile-predict-react loop could hope to achieve (compare the paper's
Fig. 10 "big/little oracle" discussion).

The search is greedy per key (keys in first-appearance order, earlier
winners pinned while later keys sweep), so its cost is
``O(keys x configs)`` replays rather than ``configs ** keys``.
"""

from __future__ import annotations

from typing import Optional

from repro.core.governors import KeyedGovernor
from repro.hardware.dvfs import CpuConfig

#: slack when comparing violation percentages between replays — the
#: simulator is deterministic, but feasibility thresholds come through
#: float accumulation.
_VIOLATION_EPS = 1e-9


class KeyPinnedPolicy(KeyedGovernor):
    """Replay policy: every event key runs at a pre-assigned config.

    Keys missing from ``assignments`` run at ``default`` (the fastest
    configuration during the oracle's sweep, so unswept keys never
    cause spurious violations).  Between inputs the platform parks on
    ``idle_config`` immediately — the oracle has perfect knowledge, so
    it needs no idle-grace hysteresis.
    """

    def __init__(
        self,
        platform,
        assignments: dict[str, CpuConfig],
        default: CpuConfig,
        idle_config: CpuConfig,
    ) -> None:
        super().__init__(platform, idle_config)
        self.assignments = dict(assignments)
        self.default = default

    def config_for(self, key: str) -> CpuConfig:
        return self.assignments.get(key, self.default)


def _key_feasible(
    keys: list[str],
    violations: list[Optional[float]],
    allowances: list[float],
    key: str,
) -> bool:
    """Did every annotated event of ``key`` stay within its allowance?

    The allowance for each event is the violation observed at the
    fastest configuration — normally 0, but if a target is infeasible
    even flat-out, the oracle must merely not make it worse."""
    for event_key, violation, allowance in zip(keys, violations, allowances):
        if event_key != key or violation is None:
            continue
        if violation > allowance + _VIOLATION_EPS:
            return False
    return True


def run_oracle(spec, *, app, scenario, trace_kind, seed, settle_s):
    """Post-hoc runner for the ``oracle`` policy (registry entry point).

    Returns the :class:`~repro.evaluation.runner.RunResult` of the
    final replay under the minimum-energy feasible assignment; the
    chosen per-key configurations are reported in ``runtime_stats``.

    ``scenario`` is a scenario spec, not a live object: every replay is
    its own :class:`~repro.evaluation.runner.SessionExecution` over a
    freshly built app, with a *fresh* bound scenario instance — the
    sweep therefore experiences the same time-varying targets and
    frequency caps as a live policy (over-cap pins clamp through the
    DVFS controller), and thermal state never leaks between replays.
    """
    # Imported lazily: the runner imports repro.policies for the
    # registry, so a module-level import here would be circular.
    from repro.evaluation.runner import SessionExecution, trace_event_keys
    from repro.hardware.platform import odroid_xu_e
    from repro.workloads.registry import build_app

    configs = odroid_xu_e().all_configs()  # performance order
    fastest, idle = configs[-1], configs[0]
    keys = trace_event_keys(app, seed, trace_kind)

    def replay(assignments: dict[str, CpuConfig]):
        execution = SessionExecution(
            build_app(app, seed),
            lambda platform, registry, live_scenario: KeyPinnedPolicy(
                platform, assignments, fastest, idle
            ),
            scenario, trace_kind=trace_kind, seed=seed, settle_s=settle_s,
            label=spec.label(),
        )
        execution.run()
        return execution.finish()

    baseline = replay({})
    # Per-event allowance: what the fastest configuration achieves.
    allowances = [
        0.0 if violation is None else max(0.0, violation)
        for violation in baseline.event_violations_pct
    ]

    assignments: dict[str, CpuConfig] = {}
    unique_keys = list(dict.fromkeys(keys))  # first-appearance order
    for key in unique_keys:
        best_config: Optional[CpuConfig] = None
        best_energy = baseline.energy_j
        for config in configs:
            trial = replay({**assignments, key: config})
            if not _key_feasible(keys, trial.event_violations_pct, allowances, key):
                continue
            if best_config is None or trial.energy_j < best_energy:
                best_config, best_energy = config, trial.energy_j
        if best_config is not None:
            assignments[key] = best_config

    result = replay(assignments)
    result.runtime_stats = {
        "oracle_assignments": {
            key: str(config) for key, config in assignments.items()
        },
        "oracle_replays": 1 + len(unique_keys) * len(configs) + 1,
    }
    return result
