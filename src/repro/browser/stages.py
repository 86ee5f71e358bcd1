"""Frame pipeline stages and per-frame render cost model.

A frame passes through five processing stages (paper Fig. 7): callback
execution, style resolution, layout, paint (renderer main thread), and
composite (compositor thread, partially GPU-offloaded).  The render
cost model maps a frame's *complexity* — a scalar the application's
callbacks attach to their dirtying effects — onto per-stage
:class:`~repro.hardware.core.WorkUnit` amounts.

The composite stage carries a frequency-independent component
(``composite_fixed_us``): the GPU/memory time that the Xie et al. DVFS
model's ``T_independent`` term captures (paper Eq. 1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import BrowserError
from repro.hardware.core import WorkUnit, trusted_work


class PipelineStage(enum.Enum):
    """The five frame processing stages of Fig. 7."""

    CALLBACK = "callback"
    STYLE = "style"
    LAYOUT = "layout"
    PAINT = "paint"
    COMPOSITE = "composite"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class RenderCostModel:
    """Per-stage render work for a complexity-1.0 frame.

    Cycle amounts are reference big-core cycles (see
    :mod:`repro.hardware.core`); ``composite_fixed_us`` is the
    frequency-independent GPU/raster share of compositing.

    Scaling: style/layout/paint/composite cycles scale linearly with
    frame complexity; the fixed GPU time scales with a damped factor
    (complex frames repaint more pixels, but the display pipeline cost
    is bounded) — ``fixed * (1 + 0.2 * (complexity - 1))``.
    """

    style_cycles: float = 500_000.0
    layout_cycles: float = 1_000_000.0
    paint_cycles: float = 1_500_000.0
    composite_cycles: float = 500_000.0
    composite_fixed_us: float = 2_000.0

    def __post_init__(self) -> None:
        for name in ("style_cycles", "layout_cycles", "paint_cycles",
                     "composite_cycles", "composite_fixed_us"):
            if getattr(self, name) < 0:
                raise BrowserError(f"negative render cost: {name}")

    def frame_work(
        self, complexity: float
    ) -> tuple[WorkUnit, WorkUnit, WorkUnit, WorkUnit]:
        """The style, layout, paint and composite :class:`WorkUnit` of
        one frame at the given complexity (built once per frame)."""
        if complexity < 0:
            raise BrowserError(f"negative frame complexity: {complexity}")
        # Non-negative costs times a non-negative complexity: no unit
        # needs the constructor's check.
        fixed = self.composite_fixed_us * (1.0 + 0.2 * max(0.0, complexity - 1.0))
        return (
            trusted_work((self.style_cycles * complexity, 0.0)),
            trusted_work((self.layout_cycles * complexity, 0.0)),
            trusted_work((self.paint_cycles * complexity, 0.0)),
            trusted_work((self.composite_cycles * complexity, fixed)),
        )
