"""User-agent intervention (UAI) against mis-annotation (paper Sec. 8).

"One potential vulnerability of exposing GreenWeb hints to developers
is that developers might place hints that lead to inefficient system
decisions ... a developer could set every event's QoS target to an
extremely low value, which causes the Web runtime always to operate at
the highest performance with maximal energy consumption.  ... One
candidate [UAI policy] is to specify an energy budget of any Web
application and ignore overly aggressive GreenWeb annotations once the
energy budget is consumed."

:class:`UaiGreenWebRuntime` implements that candidate policy on top of
the stock runtime: while the page stays within its energy budget,
annotations are honoured verbatim; once the budget is consumed, any
annotation whose target is *more aggressive* than the Table 1 default
for its category is clamped back to the default (the paper's
"ignore overly aggressive annotations"), and the per-event aggression
is reported for diagnostics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.browser.engine import event_key
from repro.browser.messages import InputMsg
from repro.core.annotations import AnnotationRegistry
from repro.core.qos import (
    SINGLE_LONG_DEFAULT,
    QoSSpec,
    QoSType,
    ResponseExpectation,
)
from repro.core.runtime import GreenWebRuntime
from repro.errors import QosError
from repro.hardware.platform import MobilePlatform
from repro.web.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenarios.base import Scenario


def default_target_for(spec: QoSSpec) -> QoSSpec:
    """The Table 1 default spec for a (possibly customised) spec's
    category — what UAI clamps an aggressive annotation back to."""
    if spec.qos_type is QoSType.CONTINUOUS:
        return QoSSpec.continuous()
    expectation = spec.expectation
    if expectation is None:
        # Infer the closest category from the annotated target: treat
        # anything tighter than the long-category default as "short".
        expectation = (
            ResponseExpectation.SHORT
            if spec.target.imperceptible_ms < SINGLE_LONG_DEFAULT.imperceptible_ms
            else ResponseExpectation.LONG
        )
    return QoSSpec.single(expectation)


def is_aggressive(spec: QoSSpec) -> bool:
    """True if the spec demands a *tighter* (lower-latency) target than
    its category default — the mis-annotation pattern Sec. 8 describes."""
    default = default_target_for(spec)
    return (
        spec.target.imperceptible_ms < default.target.imperceptible_ms
        or spec.target.usable_ms < default.target.usable_ms
    )


class UaiGreenWebRuntime(GreenWebRuntime):
    """GreenWeb runtime with a Sec. 8 energy-budget UAI policy.

    Args:
        energy_budget_j: the application's energy allowance.  While
            cumulative platform energy stays below it, annotations are
            honoured as-is; afterwards, aggressive targets are clamped
            to their Table 1 category defaults.
    """

    def __init__(
        self,
        platform: MobilePlatform,
        registry: AnnotationRegistry,
        scenario: "Scenario",
        energy_budget_j: float = float("inf"),
        **kwargs,
    ) -> None:
        if energy_budget_j <= 0:
            raise QosError(f"energy budget must be positive, got {energy_budget_j}")
        super().__init__(platform, registry, scenario, **kwargs)
        self.energy_budget_j = energy_budget_j
        self.clamped_inputs = 0
        self.aggressive_inputs_seen = 0

    # ------------------------------------------------------------------
    @property
    def budget_exhausted(self) -> bool:
        """Whether the app has consumed its energy allowance."""
        return self.platform.meter.total_j >= self.energy_budget_j

    def on_input(self, msg: InputMsg, event: Event) -> None:
        spec = self.registry.lookup(event.target, event.type)
        if spec is not None and is_aggressive(spec):
            self.aggressive_inputs_seen += 1
            if self.budget_exhausted:
                # Intervene: serve the input as if the annotation used
                # the category default, under a separate adaptive key.
                self.clamped_inputs += 1
                key = event_key(msg.target_key, event.type) + "!uai"
                self._enter(msg, default_target_for(spec), key)
                return
        self._serve(msg, event, spec)
