"""Register and run a third-party scheduling policy.

Usage::

    python examples/custom_policy.py [app]

Everything the evaluation harness accepts as a "governor" is a policy
spec resolved through ``repro.policies.POLICIES``, so plugging in your
own scheduler is three steps: write a ``BrowserPolicy``, register a
factory for it, and name it (with parameters) anywhere a spec string
goes — ``run_workload``, ``Session``, a fleet ``MixEntry``, or ``--mix``.

The example policy is a deliberately simple "two-gear" scheduler: big
cluster while any input is in flight, the slowest config otherwise.
No annotations, no prediction — it bounds what input-gating alone buys
compared to the paper's annotation-driven runtime.
"""

import sys

from repro.browser.engine import BrowserPolicy
from repro.evaluation.runner import run_workload
from repro.policies import POLICIES, register
from repro.workloads import APP_NAMES


class TwoGearPolicy(BrowserPolicy):
    """Big cluster while inputs are in flight, idle config otherwise."""

    def __init__(self, platform, registry, scenario, busy_mhz=1800):
        configs = platform.all_configs()
        self.platform = platform
        self.idle_config = configs[0]
        candidates = [c for c in configs if c.cluster == "big" and c.freq_mhz == busy_mhz]
        if not candidates:
            raise ValueError(f"no big@{busy_mhz}MHz config on this platform")
        self.busy_config = candidates[0]
        self._in_flight = 0

    def on_input(self, msg, event):
        self._in_flight += 1
        self.platform.set_config(self.busy_config)

    def on_input_complete(self, record):
        self._in_flight = max(0, self._in_flight - 1)
        if self._in_flight == 0:
            self.platform.set_config(self.idle_config)


def _two_gear_schema(busy_mhz: int = 1800):
    """Parameter schema for the registry (names, types, defaults)."""


@register(
    "two_gear",
    description="big cluster while inputs are in flight, idle otherwise",
    params_from=_two_gear_schema,
)
def build_two_gear(platform, registry, scenario, busy_mhz=1800):
    return TwoGearPolicy(platform, registry, scenario, busy_mhz=busy_mhz)


def main() -> None:
    app = sys.argv[1] if len(sys.argv) > 1 else "cnet"
    if app not in APP_NAMES:
        raise SystemExit(f"unknown app {app!r}; choose from {', '.join(APP_NAMES)}")

    print("Registered policies:")
    for name, description in POLICIES.describe().items():
        print(f"  {name:12s} {description}")
    print()

    print(f"Application: {app} (micro trace, imperceptible)")
    print(f"{'policy':28s} {'energy (mJ)':>12s} {'violations':>11s}")
    print("-" * 54)
    for spec in ("perf", "two_gear", "two_gear(busy_mhz=1600)", "greenweb"):
        result = run_workload(app, spec, "imperceptible", "micro", 0)
        print(
            f"{result.governor:28s} {result.active_energy_j * 1000:12.1f} "
            f"{result.mean_violation_pct:10.2f}%"
        )

    print()
    print("Input-gating alone saves energy over Perf, but without the")
    print("annotations GreenWeb exploits it cannot slow busy frames down")
    print("to the QoS target — that gap is the paper's contribution.")


if __name__ == "__main__":
    main()
