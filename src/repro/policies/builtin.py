"""Registry entries for the repo's built-in scheduling policies.

The paper's six governors (Sec. 7.1's bake-off set plus the ablation
references) move onto the registry here, each with its parameter schema
introspected from the implementing class so spec strings like
``interactive(go_hispeed_load=0.8)`` or ``greenweb(ewma_alpha=0.25)``
validate against the real constructor.  The ``oracle`` post-hoc policy
(:mod:`repro.policies.oracle`) registers alongside them as the
minimum-energy-meeting-QoS lower bound.

Imported for its side effects by :mod:`repro.policies`.
"""

from __future__ import annotations

from repro.core.ebs import EbsGovernor
from repro.core.governors import (
    InteractiveGovernor,
    OndemandGovernor,
    PinnedGovernor,
)
from repro.core.runtime import GreenWebRuntime
from repro.hardware.dvfs import CpuConfig
from repro.policies.oracle import run_oracle
from repro.policies.registry import POLICIES


@POLICIES.register("perf", description="peak performance, always (paper baseline)")
def _build_perf(platform, registry, scenario):
    big = platform.cluster("big").spec
    return PinnedGovernor(platform, CpuConfig("big", big.opps.max.freq_mhz))


@POLICIES.register(
    "interactive",
    description="Android's interactive cpufreq governor (paper baseline)",
    params_from=InteractiveGovernor,
)
def _build_interactive(platform, registry, scenario, **params):
    return InteractiveGovernor(platform, **params)


@POLICIES.register(
    "powersave", description="slowest little configuration, always (energy floor)"
)
def _build_powersave(platform, registry, scenario):
    little = platform.cluster("little").spec
    return PinnedGovernor(platform, CpuConfig("little", little.opps.min.freq_mhz))


@POLICIES.register(
    "ondemand",
    description="classic ondemand governor: max above threshold, step down when low",
    params_from=OndemandGovernor,
)
def _build_ondemand(platform, registry, scenario, **params):
    return OndemandGovernor(platform, **params)


@POLICIES.register(
    "greenweb",
    description="the Sec. 6 QoS-annotation-driven runtime",
    params_from=GreenWebRuntime,
    aliases={"ewma": "ewma_alpha", "headroom": "target_headroom"},
)
def _build_greenweb(platform, registry, scenario, **params):
    return GreenWebRuntime(platform, registry, scenario, **params)


@POLICIES.register(
    "ebs",
    description="annotation-free event-based scheduling (Sec. 9 comparison)",
    params_from=EbsGovernor,
)
def _build_ebs(platform, registry, scenario, **params):
    return EbsGovernor(platform, **params)


def _oracle_schema():
    """The oracle takes no parameters (its search is exhaustive)."""


POLICIES.register(
    "oracle",
    description="post-hoc per-key config search: minimum energy meeting QoS",
    params_from=_oracle_schema,
    posthoc=True,
)(run_oracle)
