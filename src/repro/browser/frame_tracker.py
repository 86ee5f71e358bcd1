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

The per-frame history is retained struct-of-arrays style
(:class:`FrameColumns`): displayed frames append one value to each
parallel column instead of keeping the transient :class:`FrameRecord`
objects alive.  At fleet scale (many sessions per worker process) this
is what keeps the frame pipeline's retained footprint a handful of flat
lists per session rather than thousands of per-frame objects.
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
    displayed, the frame's durable history lives in the tracker's
    :class:`FrameColumns` and the record itself is dropped.
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


class FrameColumns:
    """Struct-of-arrays history of every displayed frame.

    Parallel columns indexed by display order; ``column[i]`` describes
    the i-th displayed frame.  Appending five scalars to flat lists is
    both cheaper and denser than retaining a :class:`FrameRecord` (plus
    its contributor list and latency dict) per frame, which matters
    when one process carries many sessions' histories at once.
    """

    __slots__ = ("seq", "vsync_us", "display_us", "contributor_count", "max_latency_us")

    def __init__(self) -> None:
        self.seq: list[int] = []
        self.vsync_us: list[int] = []
        self.display_us: list[int] = []
        self.contributor_count: list[int] = []
        self.max_latency_us: list[int] = []

    def __len__(self) -> int:
        return len(self.seq)

    def row(self, i: int) -> dict:
        """The i-th displayed frame as a dict (convenience for tests
        and exports; the hot path never materializes rows)."""
        return {
            "seq": self.seq[i],
            "vsync_us": self.vsync_us[i],
            "display_us": self.display_us[i],
            "contributor_count": self.contributor_count[i],
            "max_latency_us": self.max_latency_us[i],
        }


class FrameTracker:
    """Owns all input records; computes latencies and completion."""

    def __init__(
        self, on_input_complete: Optional[Callable[[InputRecord], None]] = None
    ) -> None:
        self._records: dict[int, InputRecord] = {}
        self._on_input_complete = on_input_complete
        self.frames_displayed = 0
        #: Struct-of-arrays history of displayed frames (display order).
        self.frame_columns = FrameColumns()

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
            raise BrowserError(f"unknown input uid {uid}") from None

    def retain(self, uid: int) -> None:
        """One more outstanding continuation for this input."""
        record = self.record(uid)
        if record.completed:
            # A continuation appeared after completion (e.g. a very late
            # timer).  Reopen the record; completion will fire again.
            record.completed = False
            record.complete_us = None
        record.outstanding += 1

    def release(self, uid: int, now_us: int = 0) -> None:
        """One continuation finished; completes the input at zero."""
        record = self.record(uid)
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
        retains.  The frame's summary is appended to the struct-of-arrays
        :attr:`frame_columns` history."""
        frame.display_us = display_us
        self.frames_displayed += 1
        records = self._records
        latencies = frame.latencies_us
        max_latency = 0
        for contributor in frame.contributors:
            latency = display_us - contributor.clock_start_us
            uid = contributor.msg.uid
            latencies[uid] = latency
            records[uid].frame_latencies_us.append(latency)
            if latency > max_latency:
                max_latency = latency
        columns = self.frame_columns
        columns.seq.append(frame.seq)
        columns.vsync_us.append(frame.vsync_us)
        columns.display_us.append(display_us)
        columns.contributor_count.append(len(frame.contributors))
        columns.max_latency_us.append(max_latency)
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
