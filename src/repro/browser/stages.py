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
from repro.hardware.core import WorkUnit


class PipelineStage(enum.Enum):
    """The five frame processing stages of Fig. 7."""

    CALLBACK = "callback"
    STYLE = "style"
    LAYOUT = "layout"
    PAINT = "paint"
    COMPOSITE = "composite"

    def __str__(self) -> str:
        return self.value


#: Stages executed on the renderer main thread, in order.
MAIN_THREAD_RENDER_STAGES = (PipelineStage.STYLE, PipelineStage.LAYOUT, PipelineStage.PAINT)


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

    def work_for(self, stage: PipelineStage, complexity: float) -> WorkUnit:
        """The :class:`WorkUnit` for ``stage`` at the given complexity."""
        if complexity < 0:
            raise BrowserError(f"negative frame complexity: {complexity}")
        if stage is PipelineStage.STYLE:
            return WorkUnit(self.style_cycles * complexity)
        if stage is PipelineStage.LAYOUT:
            return WorkUnit(self.layout_cycles * complexity)
        if stage is PipelineStage.PAINT:
            return WorkUnit(self.paint_cycles * complexity)
        if stage is PipelineStage.COMPOSITE:
            fixed = self.composite_fixed_us * (1.0 + 0.2 * max(0.0, complexity - 1.0))
            return WorkUnit(self.composite_cycles * complexity, fixed_us=fixed)
        raise BrowserError(f"no render cost for stage {stage}")
