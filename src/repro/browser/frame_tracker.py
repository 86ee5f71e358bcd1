"""Frame latency tracking and event-frame association.

Implements the paper's Fig. 8 algorithm and Sec. 6.4 association:

* every input gets an :class:`InputRecord` keyed by its unique id;
* each displayed frame carries the ``Msg`` metadata of every input
  that contributed to it (dirty-bit batching can merge several inputs
  into one frame), and per-input latency is computed at display time
  (Part III);
* the *transitive closure* of an input — callbacks, timeouts, rAF
  handlers, animations it spawned — is tracked by reference counting:
  the browser retains the input's record for every outstanding
  continuation and releases on completion.  When the count drops to
  zero the input's associated frames are complete and the policy is
  told (the moment a GreenWeb runtime conserves energy).

The tracker retains no per-frame history: a displayed frame's latencies
land on its inputs' records, and the transient :class:`FrameRecord` is
dropped.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import BrowserError
from repro.browser.messages import FrameContributor, InputMsg


class InputRecord:
    """Lifetime bookkeeping for one user input.

    A ``__slots__`` class (not a dataclass): records sit on the
    per-input hot path and the generated dataclass ``__init__`` plus
    ``__dict__`` storage measurably cost at fleet scale.
    """

    __slots__ = ("msg", "frame_latencies_us", "outstanding", "completed", "complete_us")

    def __init__(
        self,
        msg: InputMsg,
        frame_latencies_us: Optional[list[int]] = None,
        outstanding: int = 0,
        completed: bool = False,
        complete_us: Optional[int] = None,
    ) -> None:
        self.msg = msg
        #: Latency (us) of every frame attributed to this input, display order.
        self.frame_latencies_us: list[int] = (
            frame_latencies_us if frame_latencies_us is not None else []
        )
        #: Outstanding continuations (tasks, timers, animations, dirty bits).
        self.outstanding = outstanding
        self.completed = completed
        self.complete_us = complete_us

    @property
    def uid(self) -> int:
        return self.msg.uid

    @property
    def frame_count(self) -> int:
        return len(self.frame_latencies_us)

    @property
    def first_frame_latency_us(self) -> Optional[int]:
        return self.frame_latencies_us[0] if self.frame_latencies_us else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "completed" if self.completed else f"outstanding={self.outstanding}"
        return f"<InputRecord uid={self.msg.uid} frames={self.frame_count} {state}>"


class FrameRecord:
    """One in-flight frame and its input attribution.

    Transient: the browser holds at most one per pipeline stage; once
    displayed, its latencies live on the inputs' records and the record
    itself is dropped.
    """

    __slots__ = ("seq", "vsync_us", "complexity", "contributors", "display_us", "latencies_us")

    def __init__(
        self,
        seq: int,
        vsync_us: int,
        complexity: float,
        contributors: list[FrameContributor],
        display_us: Optional[int] = None,
        latencies_us: Optional[dict[int, int]] = None,
    ) -> None:
        self.seq = seq
        self.vsync_us = vsync_us
        self.complexity = complexity
        self.contributors = contributors
        self.display_us = display_us
        #: Per-input latency, filled at display time (Fig. 8 Part III).
        self.latencies_us: dict[int, int] = (
            latencies_us if latencies_us is not None else {}
        )

    @property
    def uids(self) -> list[int]:
        return [c.msg.uid for c in self.contributors]

    @property
    def displayed(self) -> bool:
        return self.display_us is not None

    @property
    def max_latency_us(self) -> int:
        """The worst per-input latency of this frame (0 if none)."""
        return max(self.latencies_us.values(), default=0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"displayed@{self.display_us}us" if self.displayed else "in-flight"
        return f"<FrameRecord seq={self.seq} vsync={self.vsync_us}us {state}>"


class FrameTracker:
    """Owns all input records; computes latencies and completion."""

    def __init__(
        self, on_input_complete: Optional[Callable[[InputRecord], None]] = None
    ) -> None:
        self._records: dict[int, InputRecord] = {}
        self._on_input_complete = on_input_complete

    # ------------------------------------------------------------------
    # Input lifecycle
    # ------------------------------------------------------------------
    def input_received(self, msg: InputMsg) -> InputRecord:
        """Register a new input (Fig. 8 Part I has just stamped it)."""
        if msg.uid in self._records:
            raise BrowserError(f"duplicate input uid {msg.uid}")
        record = InputRecord(msg=msg)
        self._records[msg.uid] = record
        return record

    def record(self, uid: int) -> InputRecord:
        try:
            return self._records[uid]
        except KeyError:
            raise _unknown_uid(uid) from None

    # retain and release run for every continuation of every input:
    # they look the record up directly instead of through record().
    def retain(self, uid: int) -> None:
        """One more outstanding continuation for this input."""
        try:
            record = self._records[uid]
        except KeyError:
            raise _unknown_uid(uid) from None
        if record.completed:
            # A continuation appeared after completion (e.g. a very late
            # timer).  Reopen the record; completion will fire again.
            record.completed = False
            record.complete_us = None
        record.outstanding += 1

    def release(self, uid: int, now_us: int = 0) -> None:
        """One continuation finished; completes the input at zero."""
        try:
            record = self._records[uid]
        except KeyError:
            raise _unknown_uid(uid) from None
        if record.outstanding <= 0:
            raise BrowserError(f"release without retain for input {uid}")
        record.outstanding -= 1
        if record.outstanding == 0 and not record.completed:
            record.completed = True
            record.complete_us = now_us
            if self._on_input_complete is not None:
                self._on_input_complete(record)

    # ------------------------------------------------------------------
    # Frames
    # ------------------------------------------------------------------
    def frame_displayed(self, frame: FrameRecord, display_us: int) -> None:
        """Fig. 8 Part III: compute per-input latency for every Msg that
        rode along with the frame, then release the inputs' dirty
        retains."""
        frame.display_us = display_us
        records = self._records
        latencies = frame.latencies_us
        for contributor in frame.contributors:
            latency = display_us - contributor.clock_start_us
            uid = contributor.msg.uid
            latencies[uid] = latency
            records[uid].frame_latencies_us.append(latency)
        # Release after all latencies are recorded so a completion
        # callback sees the full frame list.
        for contributor in frame.contributors:
            self.release(contributor.msg.uid, display_us)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def records(self) -> list[InputRecord]:
        """All input records, in arrival order."""
        return list(self._records.values())

    def all_frame_latencies_us(self) -> list[int]:
        """Every (input, frame) latency observation in the run."""
        out: list[int] = []
        for record in self._records.values():
            out.extend(record.frame_latencies_us)
        return out


def _unknown_uid(uid: int) -> BrowserError:
    return BrowserError(f"unknown input uid {uid}")
