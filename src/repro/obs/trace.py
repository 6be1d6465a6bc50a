"""Hierarchical tracing with wall *and* virtual durations.

A :class:`Tracer` produces :class:`Span` objects through a
context-manager API::

    tracer = Tracer(clock=dataset.clock)
    with tracer.span("query.execute", dtql=text) as span:
        with tracer.span("query.plan"):
            ...
        span.set("rows", len(rows))

Spans carry a name, free-form attributes, their parent link and depth,
and two durations: wall seconds (through the single
:mod:`repro.obs.timing` code path) and — when the tracer is given a
simulated clock — virtual seconds, so a span can show "0.3 ms of CPU,
4.1 s of simulated remote latency".

Finished spans land in a bounded ring buffer (oldest evicted first),
read back through :meth:`Tracer.finished_spans` and
:meth:`Tracer.summary`.

The default tracer of the whole system is :data:`NULL_TRACER`: its
``span()`` returns one shared, do-nothing span, so instrumented hot
paths cost a method call and nothing else until somebody opts in
(see :func:`repro.obs.set_tracer`).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any

from repro.errors import ObservabilityError
from repro.obs.timing import now_wall


class Span:
    """One traced operation. Context manager; finishes on exit."""

    __slots__ = (
        "tracer", "name", "span_id", "parent_id", "depth", "attributes",
        "started_wall", "wall_s", "started_virtual", "virtual_s",
        "finished",
    )

    def __init__(self, tracer: "Tracer", name: str,
                 attributes: dict[str, Any]) -> None:
        self.tracer = tracer
        self.name = name
        self.span_id = tracer._next_id()
        self.parent_id: int | None = None
        self.depth = 0
        self.attributes = attributes
        self.started_wall = 0.0
        self.wall_s = 0.0
        self.started_virtual: float | None = None
        self.virtual_s: float | None = None
        self.finished = False

    def set(self, key: str, value: Any) -> None:
        """Attach (or overwrite) one attribute."""
        self.attributes[key] = value

    def __enter__(self) -> "Span":
        self.tracer._push(self)
        self.started_wall = now_wall()
        if self.tracer.clock is not None:
            self.started_virtual = self.tracer.clock.now()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.wall_s = now_wall() - self.started_wall
        if self.started_virtual is not None:
            self.virtual_s = (
                self.tracer.clock.now() - self.started_virtual
            )
        if exc_type is not None:
            self.attributes["error"] = exc_type.__name__
        self.tracer._pop(self)

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"wall={self.wall_s * 1000:.3f}ms)")


class _NullSpan:
    """The shared do-nothing span of the disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, key: str, value: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracing: every call is a no-op, no span is allocated."""

    enabled = False
    clock = None

    def span(self, name: str, **attributes: Any) -> _NullSpan:
        return _NULL_SPAN

    def record(self, name: str, **kwargs: Any) -> _NullSpan:
        return _NULL_SPAN

    def finished_spans(self) -> list[Span]:
        return []

    def reset(self) -> None:
        pass

    def __repr__(self) -> str:
        return "NullTracer()"


#: The process-wide default: tracing off, near-zero overhead.
NULL_TRACER = NullTracer()


class Tracer:
    """Collects hierarchical spans into a bounded ring buffer.

    ``clock`` is any object with a ``now() -> float`` method (normally a
    :class:`repro.sources.clock.SimulatedClock`); when present, every
    span also measures elapsed virtual time.
    """

    enabled = True

    def __init__(self, clock: Any | None = None,
                 capacity: int = 2048) -> None:
        if capacity < 1:
            raise ObservabilityError("tracer capacity must be positive")
        self.clock = clock
        self.capacity = capacity
        self._finished: deque[Span] = deque(maxlen=capacity)
        # Span nesting is per thread: callers sharing one tracer from
        # several threads must not interleave with (or corrupt) each
        # other's open-span stacks. The ring buffer
        # and id counter stay shared, guarded by one lock.
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = 0
        self.started = 0
        self.dropped = 0

    @property
    def _local_stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- span lifecycle -----------------------------------------------------

    def span(self, name: str, **attributes: Any) -> Span:
        """A new span; nests under the currently open span on entry."""
        return Span(self, name, attributes)

    def record(self, name: str, *, wall_s: float = 0.0,
               virtual_s: float | None = None,
               parent: Span | None = None,
               **attributes: Any) -> Span:
        """Log an already-measured operation as a finished span.

        Used when durations were collected outside the context-manager
        discipline (e.g. per-operator stats gathered during lazy plan
        execution, emitted as spans afterwards).
        """
        span = Span(self, name, attributes)
        span.wall_s = wall_s
        span.virtual_s = virtual_s
        if parent is not None:
            span.parent_id = parent.span_id
            span.depth = parent.depth + 1
        elif self._local_stack:
            span.parent_id = self._local_stack[-1].span_id
            span.depth = self._local_stack[-1].depth + 1
        self._finish(span)
        return span

    def _next_id(self) -> int:
        with self._lock:
            self._ids += 1
            self.started += 1
            return self._ids

    def _push(self, span: Span) -> None:
        if self._local_stack:
            span.parent_id = self._local_stack[-1].span_id
            span.depth = self._local_stack[-1].depth + 1
        self._local_stack.append(span)

    def _pop(self, span: Span) -> None:
        if not self._local_stack or self._local_stack[-1] is not span:
            raise ObservabilityError(
                f"span {span.name!r} closed out of order"
            )
        self._local_stack.pop()
        self._finish(span)

    def _finish(self, span: Span) -> None:
        span.finished = True
        with self._lock:
            if len(self._finished) == self._finished.maxlen:
                self.dropped += 1
            self._finished.append(span)

    # -- inspection ---------------------------------------------------------

    def finished_spans(self) -> list[Span]:
        """Finished spans, oldest first (completion order)."""
        return list(self._finished)

    def reset(self) -> None:
        """Drop finished spans (open spans keep nesting correctly)."""
        with self._lock:
            self._finished.clear()
            self.dropped = 0

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-name aggregate: count, total wall, total virtual."""
        out: dict[str, dict[str, float]] = {}
        for span in self._finished:
            agg = out.setdefault(span.name, {
                "count": 0, "wall_s": 0.0, "virtual_s": 0.0,
            })
            agg["count"] += 1
            agg["wall_s"] += span.wall_s
            if span.virtual_s is not None:
                agg["virtual_s"] += span.virtual_s
        return out

    def __repr__(self) -> str:
        return (f"Tracer(finished={len(self._finished)}, "
                f"open={len(self._local_stack)}, capacity={self.capacity})")
