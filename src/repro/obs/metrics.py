"""Counters, gauges, and fixed-bucket histograms.

A :class:`MetricsRegistry` is the system's numeric dashboard: sources
count round-trips and bytes, caches count hits and misses, the engine
and the mobile server record latency histograms. Everything snapshots
to a plain dict of JSON-native values — ``snapshot()`` survives a
``json.dumps``/``loads`` round-trip unchanged — which is what the
benchmark hook writes next to its results.

Instruments are get-or-create by name (``registry.counter("x").inc()``),
so call sites never coordinate registration order.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections.abc import Iterable
from math import ceil
from typing import Any

from repro.errors import ObservabilityError

#: Default histogram buckets for second-scale latencies (upper bounds).
DEFAULT_LATENCY_BUCKETS_S = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

#: Default histogram buckets for size-like quantities (rows, bytes).
DEFAULT_SIZE_BUCKETS = (
    1, 5, 10, 50, 100, 500, 1_000, 5_000, 10_000, 100_000,
)


class Counter:
    """Monotonically increasing value.

    Instruments are shared by every caller thread (a server's worker
    pool), so every mutation holds the instrument's lock: an unguarded
    ``+=`` is a read-modify-write that drops increments under contention.
    """

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        with self._lock:
            self.value += amount


class Gauge:
    """A value that goes up and down (current sessions, cache entries)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def add(self, amount: float) -> None:
        with self._lock:
            self.value += amount


class Histogram:
    """Fixed-bucket histogram with cumulative-friendly edge semantics.

    ``buckets`` are sorted upper bounds; an observation ``v`` lands in
    the first bucket with ``v <= bound`` (so a value exactly on an edge
    belongs to that edge's bucket), or in the overflow bucket beyond the
    last bound.
    """

    __slots__ = ("name", "buckets", "counts", "overflow",
                 "count", "total", "minimum", "maximum", "_lock")

    def __init__(self, name: str,
                 buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_S,
                 ) -> None:
        bounds = tuple(buckets)
        if not bounds:
            raise ObservabilityError(
                f"histogram {name!r} needs at least one bucket"
            )
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ObservabilityError(
                f"histogram {name!r} buckets must be strictly increasing"
            )
        self.name = name
        self.buckets = bounds
        self.counts = [0] * len(bounds)
        self.overflow = 0
        self.count = 0
        self.total = 0.0
        self.minimum: float | None = None
        self.maximum: float | None = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        position = bisect_left(self.buckets, value)
        with self._lock:
            if position == len(self.buckets):
                self.overflow += 1
            else:
                self.counts[position] += 1
            self.count += 1
            self.total += value
            if self.minimum is None or value < self.minimum:
                self.minimum = value
            if self.maximum is None or value > self.maximum:
                self.maximum = value

    def observe_many(self, values: Iterable[float]) -> None:
        """``observe`` each of *values* in order, under one lock: the
        same buckets, count, min, max and left-to-right ``total``."""
        buckets = self.buckets
        last = len(buckets)
        counts = self.counts
        with self._lock:
            overflow = self.overflow
            count = self.count
            total = self.total
            minimum = self.minimum
            maximum = self.maximum
            try:
                for value in values:
                    position = bisect_left(buckets, value)
                    if position == last:
                        overflow += 1
                    else:
                        counts[position] += 1
                    count += 1
                    total += value
                    if minimum is None or value < minimum:
                        minimum = value
                    if maximum is None or value > maximum:
                        maximum = value
            finally:
                self.overflow = overflow
                self.count = count
                self.total = total
                self.minimum = minimum
                self.maximum = maximum

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the *q*-quantile (``q`` in [0, 1]) from the buckets.

        Uses linear interpolation inside the bucket where the
        cumulative count crosses ``q * count`` — the precision is the
        bucket resolution, which is what fixed-bucket histograms trade
        for O(1) memory. Estimates are clamped to the observed
        ``[min, max]`` and observations in the overflow bucket resolve
        to ``max`` (the histogram knows nothing finer beyond its last
        bound). An empty histogram answers 0.0.
        """
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(
                f"histogram {self.name!r} quantile must be in [0, 1], "
                f"got {q}"
            )
        with self._lock:
            if self.count == 0:
                return 0.0
            minimum = self.minimum if self.minimum is not None else 0.0
            maximum = self.maximum if self.maximum is not None else 0.0
            # Nearest-rank target: the q-quantile is the value of the
            # ceil(q*count)-th observation (1-based), so q=0 -> min.
            rank = max(1, ceil(q * self.count))
            cumulative = 0
            lower = minimum
            for bound, bucket_count in zip(self.buckets, self.counts):
                if bucket_count:
                    if cumulative + bucket_count >= rank:
                        fraction = (rank - cumulative) / bucket_count
                        low = max(lower, minimum)
                        high = min(bound, maximum)
                        if high < low:
                            return max(min(bound, maximum), minimum)
                        return low + fraction * (high - low)
                    cumulative += bucket_count
                lower = bound
            return maximum  # rank falls in the overflow bucket

    def summary(self) -> dict[str, float]:
        """The SLO digest: count, mean, and p50/p90/p99/p999."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "p999": self.quantile(0.999),
        }

    def as_dict(self) -> dict[str, Any]:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "overflow": self.overflow,
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
        }


class MetricsRegistry:
    """Named instruments plus one-call snapshot/reset."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        #: A fresh object per set of instruments: ``reset`` replaces
        #: it, so an instrument bound under the old one is rebound.
        self.epoch = object()
        # Get-or-create must hand every thread the *same* instrument:
        # two server threads racing to create "scheduler.retries"
        # would otherwise each keep a private Counter and lose counts.
        self._create_lock = threading.Lock()

    # -- get-or-create ------------------------------------------------------

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            with self._create_lock:
                counter = self._counters.get(name)
                if counter is None:
                    counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            with self._create_lock:
                gauge = self._gauges.get(name)
                if gauge is None:
                    gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str,
                  buckets: tuple[float, ...] | None = None) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            with self._create_lock:
                histogram = self._histograms.get(name)
                if histogram is None:
                    histogram = self._histograms[name] = Histogram(
                        name, buckets if buckets is not None
                        else DEFAULT_LATENCY_BUCKETS_S,
                    )
        if buckets is not None and tuple(buckets) != histogram.buckets:
            raise ObservabilityError(
                f"histogram {name!r} already exists with different buckets"
            )
        return histogram

    # -- inspection ---------------------------------------------------------

    def counter_values(self, prefix: str = "") -> dict[str, float]:
        """Current counter values, optionally filtered by name prefix."""
        return {
            name: counter.value
            for name, counter in self._counters.items()
            if name.startswith(prefix)
        }

    def snapshot(self) -> dict[str, Any]:
        """Everything, as JSON-native plain data."""
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "gauges": {
                name: gauge.value
                for name, gauge in sorted(self._gauges.items())
            },
            "histograms": {
                name: histogram.as_dict()
                for name, histogram in sorted(self._histograms.items())
            },
        }

    def reset(self) -> None:
        """Forget every instrument (names and values)."""
        with self._create_lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self.epoch = object()

    def __repr__(self) -> str:
        return (f"MetricsRegistry(counters={len(self._counters)}, "
                f"gauges={len(self._gauges)}, "
                f"histograms={len(self._histograms)})")
