"""Execution contexts: serial task execution with DVFS preemption.

An :class:`ExecutionContext` models one runnable software thread pinned
to the active cluster (the browser gives one to its renderer main
thread and one to its compositor thread).  Tasks queue FIFO and execute
one at a time; task duration is derived from the platform's *current*
configuration via the :class:`~repro.hardware.core.WorkUnit` model.

When the platform changes configuration mid-task (a frequency switch or
core migration), the platform pauses (one pause state, owned by
:class:`~repro.hardware.platform.MobilePlatform`): a running task is
frozen, its remaining work computed by proportionally scaling both
work components by the unexecuted fraction, and after the switching
overhead elapses the task resumes at the new speed.  While the platform
is paused a context starts no task; submitted work queues.  This is
what makes DVFS decisions taken *during* a frame (the GreenWeb
runtime's per-frame operation) affect that frame's latency, exactly as
on real hardware.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

from repro.hardware.core import ZERO_WORK, WorkUnit

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hardware.platform import MobilePlatform

CompletionCallback = Callable[["TaskHandle"], None]


class TaskHandle:
    """Handle for a unit of work submitted to an execution context."""

    __slots__ = (
        "label",
        "work",
        "remaining",
        "on_complete",
        "submitted_us",
        "started_us",
        "completed_us",
        "_completion_event",
    )

    def __init__(
        self,
        work: WorkUnit,
        on_complete: Optional[CompletionCallback],
        label: str,
        submitted_us: int,
    ) -> None:
        self.label = label
        self.work = work
        self.remaining = work
        self.on_complete = on_complete
        self.submitted_us = submitted_us
        self.started_us: Optional[int] = None
        self.completed_us: Optional[int] = None
        self._completion_event = None

    @property
    def done(self) -> bool:
        """True once the task has fully executed."""
        return self.completed_us is not None

    @property
    def queueing_delay_us(self) -> int:
        """Time spent waiting before first execution (0 if never run)."""
        if self.started_us is None:
            return 0
        return self.started_us - self.submitted_us

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else ("running" if self.started_us is not None else "queued")
        return f"<Task {self.label!r} {state}>"


class ExecutionContext:
    """One serially executing thread context on the platform."""

    def __init__(self, platform: "MobilePlatform", name: str) -> None:
        self._platform = platform
        self.name = name
        self._queue: deque[TaskHandle] = deque()
        self._current: Optional[TaskHandle] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """True while a task is running or frozen mid-switch."""
        return self._current is not None

    @property
    def queue_depth(self) -> int:
        """Number of tasks waiting behind the current one."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        work: WorkUnit,
        on_complete: Optional[CompletionCallback] = None,
        label: str = "",
    ) -> TaskHandle:
        """Queue ``work``; it starts immediately if the context is idle
        and the platform is not paused mid-switch.

        Zero-work tasks complete on the next kernel tick with zero
        duration (they still respect FIFO ordering).
        """
        platform = self._platform
        handle = TaskHandle(work, on_complete, label, platform.kernel._now_us)
        queue = self._queue
        queue.append(handle)
        if self._current is None and not platform._paused_depth:
            self._start(queue.popleft())
        return handle

    # ------------------------------------------------------------------
    # Platform hook (the pause around configuration switches)
    # ------------------------------------------------------------------
    def _freeze(self, task: TaskHandle) -> None:
        """Cancel the running ``task``'s completion event, banking its
        remaining work; the platform calls this for each task with a
        completion event when a switch pauses it, and restarts the task
        with :meth:`_start` after the apply."""
        event = task._completion_event
        now = self._platform.kernel._now_us
        started = task.started_us
        total = event.time_us - started
        # Zero-duration tasks race the pause; they have nothing left.
        if total > 0:
            fraction_left = max(0.0, 1.0 - (now - started) / total)
            task.remaining = task.remaining.scaled(fraction_left)
        event.cancel()
        task._completion_event = None

    # ------------------------------------------------------------------
    # The start path and the finish path
    # ------------------------------------------------------------------
    def _start(self, task: TaskHandle) -> None:
        """Run ``task`` from now: the one start path, for a task leaving
        the queue and for a frozen task resuming after a switch (the
        platform is not paused when either happens)."""
        platform = self._platform
        kernel = platform.kernel
        # Re-anchor started_us so a later freeze measures elapsed time
        # from this (re)start.
        task.started_us = kernel._now_us
        self._current = task
        if self not in platform._busy:
            # Becoming busy may trigger an observer (e.g. the interactive
            # governor's idle-exit boost) that initiates a DVFS switch and
            # pauses the platform; in that case the platform's resume
            # starts the task again at the new configuration.
            platform._context_became_busy(self)
            if platform._paused_depth:
                return
        remaining = task.remaining
        active = platform._active_cluster
        # Inlined WorkUnit.duration_us (same expression, same floats).
        duration = remaining.fixed_us + remaining.cycles / (
            active.spec.ipc_factor * active._opp.freq_mhz
        )
        # Completions stay kernel events (one per task, labelled by the
        # context); only one task runs per context, so the event's
        # action finds it through self._current.
        task._completion_event = kernel.schedule_in(
            max(0, round(duration)), self._finish, self.name
        )

    def _finish(self) -> None:
        """Complete the running task: the one finish path, the action of
        every completion event."""
        task = self._current
        platform = self._platform
        now = platform.kernel._now_us
        task.completed_us = now
        task.remaining = ZERO_WORK
        task._completion_event = None
        self._current = None
        if platform.record_task_spans and platform.trace is not None:
            platform.trace.emit(
                now,
                "task",
                "span",
                context=self.name,
                label=task.label,
                start_us=task.submitted_us,
                run_start_us=task.started_us,
                duration_us=now - task.submitted_us,
            )
        # The completion callback runs before the next queued task
        # starts: a task's effects (style writes, dirty bits, config
        # decisions) must be visible to whatever executes next, exactly
        # as straight-line code on a real thread would behave.  The
        # callback may submit new tasks (a submit to this idle context
        # starts at once) or pause the platform.
        if task.on_complete is not None:
            task.on_complete(task)
        if self._current is None:
            if self._queue and not platform._paused_depth:
                self._start(self._queue.popleft())
            else:
                platform._context_became_idle(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ExecutionContext {self.name} busy={self.busy} q={self.queue_depth}>"
