"""Observability: tracing, metrics, timers, and EXPLAIN ANALYZE.

The federated query path spans five layers — remote sources, the
fetch scheduler, the local store and semantic cache, the query engine,
and the mobile server — and the paper's headline complaint ("a number of lags
concerning querying the tree") is unanswerable without per-layer
signals. This package provides them:

* :class:`Tracer` / :class:`Span` — hierarchical spans with wall *and*
  virtual durations and a bounded ring buffer;
* :class:`MetricsRegistry` — counters, gauges, fixed-bucket histograms,
  snapshotting to JSON-native dicts;
* :class:`WallTimer` — the single wall-clock timing code path;
* :mod:`repro.obs.explain` — per-operator EXPLAIN ANALYZE machinery
  used by :meth:`repro.core.query.executor.QueryEngine.analyze`.

Instrumented modules resolve the process-wide defaults through
:func:`get_tracer` / :func:`get_metrics` at call time. Tracing defaults
to :data:`NULL_TRACER` (no spans allocated, near-zero overhead);
metrics default to one shared registry whose instruments each take
their own lock per update. Opt in with::

    from repro import obs

    tracer = obs.Tracer(clock=dataset.clock)
    obs.set_tracer(tracer)
    ...
    print(tracer.summary())
    print(obs.get_metrics().snapshot())
"""

from __future__ import annotations

from repro.obs.explain import AnalyzeReport, InstrumentedOp, OperatorStats
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_S,
    DEFAULT_SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.timing import WallTimer, now_wall
from repro.obs.trace import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "AnalyzeReport",
    "Binding",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS_S",
    "DEFAULT_SIZE_BUCKETS",
    "Gauge",
    "Histogram",
    "InstrumentedOp",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "OperatorStats",
    "Span",
    "Tracer",
    "WallTimer",
    "get_metrics",
    "get_tracer",
    "now_wall",
    "set_metrics",
    "set_tracer",
]

_tracer = NULL_TRACER
_metrics = MetricsRegistry()


def get_tracer():
    """The process-wide tracer (:data:`NULL_TRACER` unless installed)."""
    return _tracer


def set_tracer(tracer) -> None:
    """Install the process-wide tracer (``None`` restores the no-op)."""
    global _tracer
    _tracer = tracer if tracer is not None else NULL_TRACER


def get_metrics() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _metrics


def set_metrics(metrics: MetricsRegistry | None) -> None:
    """Install the process-wide registry (``None`` installs a fresh one)."""
    global _metrics
    _metrics = metrics if metrics is not None else MetricsRegistry()


class Binding:
    """A call site's instruments, looked up once per registry.

    ``Binding(bind)`` keeps what ``bind(registry)`` returned for the
    installed registry and calls *bind* again only once
    :func:`set_metrics` installs another registry or
    :meth:`MetricsRegistry.reset` forgets its instruments, so a hot path
    reads its instruments with one identity check instead of a lookup
    by name per call. *bind* should create only what the call site
    creates on its first call anyway, so that no instrument shows up
    in a snapshot earlier than it would otherwise.
    """

    __slots__ = ("_bind", "_bound")

    def __init__(self, bind) -> None:
        self._bind = bind
        #: ``(registry epoch, instruments)``, replaced whole, so a
        #: reader on another thread never pairs one epoch with the
        #: other's instruments.
        self._bound: tuple = (None, None)

    def get(self):
        registry = _metrics
        bound_epoch, instruments = self._bound
        epoch = registry.epoch
        if bound_epoch is not epoch:
            instruments = self._bind(registry)
            self._bound = (epoch, instruments)
        return instruments
