"""The two QoS abstractions: QoS type and QoS target (paper Sec. 3).

* **QoS type** (Sec. 3.2): whether user experience is judged by the
  responsiveness of one *single* response frame, or the smoothness of a
  *continuous* frame sequence.
* **QoS target** (Sec. 3.3): the performance level needed — an
  *imperceptible* frame latency ``TI`` beyond which extra speed adds no
  perceivable value, and a *usable* latency ``TU`` below which the app
  feels broken.

Table 1's three interaction categories give the default targets:

===================  ==============  ======================
category             (TI, TU)        typical interactions
===================  ==============  ======================
continuous           (16.6, 33.3) ms  T, M (animation/scroll)
single, short        (100, 300) ms    T (lightweight taps)
single, long         (1, 10) s        L, T (loads, heavy jobs)
===================  ==============  ======================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.errors import QosError


class QoSType(enum.Enum):
    """Whether QoS is judged on one frame or a frame sequence."""

    SINGLE = "single"
    CONTINUOUS = "continuous"

    def __str__(self) -> str:
        return self.value


class ResponseExpectation(enum.Enum):
    """For ``single`` events: does the user expect a short or a long
    response period?  (Paper Sec. 3.3: lightweight interactions are
    expected to finish "instantly"; users tolerate seconds for jobs
    they know are heavy.)"""

    SHORT = "short"
    LONG = "long"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class QoSTarget:
    """An (imperceptible, usable) frame-latency pair in milliseconds."""

    imperceptible_ms: float
    usable_ms: float

    def __post_init__(self) -> None:
        if self.imperceptible_ms <= 0 or self.usable_ms <= 0:
            raise QosError(f"QoS targets must be positive: {self}")
        if self.imperceptible_ms > self.usable_ms:
            raise QosError(
                f"imperceptible target ({self.imperceptible_ms} ms) must not exceed "
                f"usable target ({self.usable_ms} ms)"
            )

    def __str__(self) -> str:
        return f"(TI={self.imperceptible_ms}ms, TU={self.usable_ms}ms)"


#: Table 1 defaults: continuous frames at 60 / 30 FPS.
CONTINUOUS_DEFAULT = QoSTarget(16.6, 33.3)
#: Table 1 defaults: single frame, short expected response.
SINGLE_SHORT_DEFAULT = QoSTarget(100.0, 300.0)
#: Table 1 defaults: single frame, long expected response.
SINGLE_LONG_DEFAULT = QoSTarget(1_000.0, 10_000.0)


@dataclass(frozen=True)
class QoSSpec:
    """A complete QoS specification for one (element, event) pair: the
    QoS type plus the target pair (defaulted per Table 1 when the
    annotation omits explicit values)."""

    qos_type: QoSType
    target: QoSTarget
    #: Only meaningful for SINGLE: the annotated expectation, if the
    #: annotation used the short/long keyword form.
    expectation: Optional[ResponseExpectation] = None

    def __post_init__(self) -> None:
        if self.qos_type is QoSType.CONTINUOUS and self.expectation is not None:
            raise QosError("continuous QoS has no short/long expectation")

    @classmethod
    def continuous(cls, target: Optional[QoSTarget] = None) -> "QoSSpec":
        """A ``continuous`` spec (Table 1 defaults unless overridden)."""
        return cls(QoSType.CONTINUOUS, target or CONTINUOUS_DEFAULT)

    @classmethod
    def single(
        cls,
        expectation: ResponseExpectation = ResponseExpectation.SHORT,
        target: Optional[QoSTarget] = None,
    ) -> "QoSSpec":
        """A ``single`` spec; target defaults from the expectation."""
        if target is None:
            target = (
                SINGLE_SHORT_DEFAULT
                if expectation is ResponseExpectation.SHORT
                else SINGLE_LONG_DEFAULT
            )
        return cls(QoSType.SINGLE, target, expectation)

    def __str__(self) -> str:
        kind = str(self.qos_type)
        if self.expectation is not None:
            kind += f",{self.expectation}"
        return f"{kind} {self.target}"


@dataclass(frozen=True)
class InteractionCategory:
    """One row of the paper's Table 1."""

    qos_type: QoSType
    target: QoSTarget
    description: str
    interactions: tuple[str, ...]


#: Paper Table 1 verbatim: the three QoS type x target categories.
TABLE1_CATEGORIES: tuple[InteractionCategory, ...] = (
    InteractionCategory(
        QoSType.CONTINUOUS,
        CONTINUOUS_DEFAULT,
        "QoS experience is evaluated by continuous frame latencies.",
        ("T", "M"),
    ),
    InteractionCategory(
        QoSType.SINGLE,
        SINGLE_SHORT_DEFAULT,
        "QoS experience is evaluated by single frame latency. "
        "Users expect short response period.",
        ("T",),
    ),
    InteractionCategory(
        QoSType.SINGLE,
        SINGLE_LONG_DEFAULT,
        "QoS experience is evaluated by single frame latency. "
        "Users expect long response period.",
        ("L", "T"),
    ),
)
