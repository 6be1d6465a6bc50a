"""Simulated (virtual) time, with sequential *and* parallel regions.

Every latency in the federation layer — remote round-trips, retry
backoffs, cache TTLs, network transfer times — is charged against a
:class:`SimulatedClock` rather than the wall clock. That keeps the
experiments deterministic and lets a benchmark "spend" minutes of remote
latency in microseconds of real time, while still measuring real CPU cost
separately (pytest-benchmark times the wall clock).

By default the clock is sequential: every ``advance`` accumulates, so N
round-trips cost the *sum* of their latencies. A federated system that
scatter/gathers overlapping requests pays the *max* instead; that is
modelled with :meth:`SimulatedClock.concurrently`::

    with clock.concurrently() as region:
        # each overlapping task runs under its own timeline, one after
        # another on the thread that opened the region:
        with region.task():
            source_a.fetch_many(...)   # advances the task timeline
        with region.task():
            source_b.fetch_many(...)
    # on join the clock advanced by max(task costs), not the sum

Overlap is accounting, not execution: nothing here blocks, so tasks
run back to back at no wall cost, in a fixed order. Task timelines are
tracked per thread, so the same ``clock.advance()`` call sites work
unchanged inside or outside a region, and callers on different threads
never charge each other's timelines. Regions nest: a task may open its own inner
``concurrently()`` region, whose join advances the enclosing task's
timeline. Two invariants hold throughout: time never runs backwards, and
a region with a single task degrades to exactly the sequential cost.
"""

from __future__ import annotations

import threading

from repro.errors import SourceError


class SimulatedClock:
    """A monotonically advancing virtual clock, in seconds.

    Thread-safe: a thread inside a :meth:`concurrently` task advances
    the timeline on top of its own (thread-local) stack; everything
    else advances the global time under a lock.
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise SourceError("clock cannot start before time zero")
        self._now = float(start)
        self._lock = threading.RLock()
        self._local = threading.local()

    # -- timeline resolution ------------------------------------------------

    def _timeline_stack(self) -> list["TaskTimeline"]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def now(self) -> float:
        """Current virtual time (of the calling thread's timeline)."""
        stack = self._timeline_stack()
        if stack:
            return stack[-1].now()
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> float:
        """Advance the clock; returns the new time."""
        if seconds < 0:
            raise SourceError(f"cannot advance clock by {seconds}s")
        stack = self._timeline_stack()
        if stack:
            return stack[-1].advance(seconds)
        with self._lock:
            self._now += seconds
            return self._now

    def sleep(self, seconds: float) -> None:
        """Alias of :meth:`advance`, matching the blocking-call idiom."""
        self.advance(seconds)

    def concurrently(self) -> "ParallelRegion":
        """A scope whose overlapping tasks cost ``max(...)``, not the sum."""
        return ParallelRegion(self)

    def _advance_to(self, deadline: float) -> None:
        """Move global time forward to *deadline*; never backwards."""
        with self._lock:
            if deadline > self._now:
                self._now = deadline

    def __repr__(self) -> str:
        return f"SimulatedClock(t={self.now():.6f}s)"


class TaskTimeline:
    """One task's private timeline inside a :class:`ParallelRegion`.

    Context manager: entering pushes the timeline onto the *current
    thread's* timeline stack so that plain ``clock.advance()`` calls
    made by that thread (deep inside source code) charge this task.
    """

    __slots__ = ("_clock", "started_at", "_now")

    def __init__(self, clock: SimulatedClock, started_at: float) -> None:
        self._clock = clock
        self.started_at = started_at
        self._now = started_at

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise SourceError(f"cannot advance clock by {seconds}s")
        self._now += seconds
        return self._now

    @property
    def elapsed(self) -> float:
        return self._now - self.started_at

    def __enter__(self) -> "TaskTimeline":
        self._clock._timeline_stack().append(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        stack = self._clock._timeline_stack()
        if not stack or stack[-1] is not self:
            raise SourceError("task timeline exited out of order")
        stack.pop()


class ParallelRegion:
    """N overlapping tasks; joining costs ``max`` of their virtual times.

    The region's base time is the opener's current time. Each
    :meth:`task` starts a fresh :class:`TaskTimeline` at that base; on
    exit the region advances the opener's timeline (or the global
    clock) to the latest task end — never backwards, and exactly the
    task's own cost when there is only one task.
    """

    def __init__(self, clock: SimulatedClock) -> None:
        self._clock = clock
        self._tasks: list[TaskTimeline] = []
        self._tasks_lock = threading.Lock()
        self._active = False
        self.started_at = 0.0
        #: Set on exit: the region's critical-path virtual duration.
        self.elapsed_s = 0.0
        #: Set on exit: what the same work would have cost sequentially.
        self.sequential_s = 0.0

    @property
    def overlap_saved_s(self) -> float:
        """Virtual seconds saved versus running the tasks back-to-back."""
        return max(0.0, self.sequential_s - self.elapsed_s)

    def task(self) -> TaskTimeline:
        """A new task timeline (enter it on the thread running the task).

        Reads ``_active``/``started_at`` under ``_tasks_lock``: a task
        may be opened from another thread than the opener's (the clock
        tests do), and the lock publishes the region state to it.
        """
        with self._tasks_lock:
            if not self._active:
                raise SourceError("task() outside an open parallel region")
            timeline = TaskTimeline(self._clock, self.started_at)
            self._tasks.append(timeline)
        return timeline

    def __enter__(self) -> "ParallelRegion":
        # Read the clock before taking the lock: now() may touch the
        # clock's own RLock, and nesting it under _tasks_lock would add
        # a _tasks_lock -> clock._lock edge to the global lock order.
        started = self._clock.now()
        with self._tasks_lock:
            self.started_at = started
            self._active = True
        return self

    def __exit__(self, *exc_info: object) -> None:
        with self._tasks_lock:
            self._active = False
            ends = [timeline.now() for timeline in self._tasks]
            self.sequential_s = sum(
                timeline.elapsed for timeline in self._tasks
            )
            started = self.started_at
            joined = max(ends, default=started)
            if joined < started:
                raise SourceError(
                    "parallel region would move time backwards "
                    f"({joined:.6f} < {started:.6f})"
                )
            self.elapsed_s = joined - started
        # Advance the opener's context (outer task timeline, or the
        # global clock) to the join point; clamp at zero so time never
        # runs backwards even if the opener advanced meanwhile.
        stack = self._clock._timeline_stack()
        if stack:
            stack[-1].advance(max(0.0, joined - stack[-1].now()))
        else:
            self._clock._advance_to(joined)


class Stopwatch:
    """Measures elapsed virtual time across a block of work."""

    def __init__(self, clock: SimulatedClock) -> None:
        self._clock = clock
        self._start: float | None = None
        self.elapsed = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = self._clock.now()
        return self

    def __exit__(self, *exc_info: object) -> None:
        assert self._start is not None
        self.elapsed = self._clock.now() - self._start
