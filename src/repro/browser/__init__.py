"""Browser engine simulator (Chromium-like, paper Fig. 7).

Models the multi-process/thread frame pipeline the GreenWeb runtime
instruments:

* a **browser process** that receives input events, stamps them with
  unique Msg metadata (Fig. 8 Part I), and ships them over IPC,
* a **renderer main thread** that executes event callbacks and the
  style / layout / paint stages,
* a **compositor thread** that composites frames (with a
  frequency-independent GPU component),
* a 60 Hz **VSync** source that batches dirty state into frames via the
  dirty-bit + message-queue mechanism (Fig. 8 Part II), and
* **frame-latency tracking** that attributes every displayed frame back
  to the inputs that caused it (Fig. 8 Part III).

Animations (CSS transitions/animations, rAF loops, jQuery-style
``animate()``) generate continuous frame sequences attributed to their
root input event — the transitive closure of Sec. 6.4.
"""

from repro.browser.engine import Browser, BrowserPolicy
from repro.browser.frame_tracker import (
    FrameRecord,
    FrameTracker,
    InputRecord,
)
from repro.browser.messages import InputMsg
from repro.browser.page import Page
from repro.browser.stages import PipelineStage, RenderCostModel
from repro.browser.vsync import VSYNC_PERIOD_US, VsyncSource

__all__ = [
    "Browser",
    "BrowserPolicy",
    "Page",
    "InputMsg",
    "FrameTracker",
    "FrameRecord",
    "InputRecord",
    "PipelineStage",
    "RenderCostModel",
    "VsyncSource",
    "VSYNC_PERIOD_US",
]
