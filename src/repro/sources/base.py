"""The remote data-source protocol and its cost model.

DrugTree's defining problem (per the paper abstract) is that "data is
being obtained from multiple sources, integrated and then presented to
the user". Each source here simulates a remote service: every call costs
a round-trip of virtual latency, results are paged, the service may rate
limit, and all traffic is metered so experiments can report round-trip
counts next to latencies. Transient failures are injected from outside:
:class:`~repro.sources.chaos.ChaosSource` wraps a source and applies
the federation's :class:`~repro.faults.FaultSchedule` to it.

All sources speak one uniform key-value dialect:

* ``kinds()`` — the record kinds this source serves (``"protein"``,
  ``"activity_by_protein"``, ...);
* ``fetch_many(kind, keys)`` — one round-trip returning a dict of the
  found records;
* ``scan_keys(kind)`` — all keys of a kind, charged per page.

Typed convenience methods on the concrete sources are sugar over these
three, which is what lets the scheduler, the chaos wrapper and the
integration pipeline stay generic.
"""

from __future__ import annotations

import random
import threading
from abc import ABC, abstractmethod
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.errors import RateLimitError, SourceError
from repro.obs import get_metrics, get_tracer
from repro.sources.clock import SimulatedClock, TokenBucket


@dataclass
class LatencyModel:
    """Virtual-time cost of one round-trip to a remote source.

    ``base_s`` is the fixed per-request cost (network RTT plus service
    overhead); ``per_item_s`` the marginal cost of each returned record;
    ``jitter_fraction`` adds deterministic pseudo-random variation.
    """

    base_s: float = 0.050
    per_item_s: float = 0.0005
    jitter_fraction: float = 0.10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base_s < 0 or self.per_item_s < 0:
            raise SourceError("latency components must be non-negative")
        if not 0.0 <= self.jitter_fraction < 1.0:
            raise SourceError("jitter fraction must be in [0, 1)")
        self._rng = random.Random(self.seed)

    def sample(self, item_count: int) -> float:
        """Latency of one round-trip returning *item_count* records."""
        nominal = self.base_s + self.per_item_s * max(item_count, 0)
        if self.jitter_fraction == 0.0:
            return nominal
        spread = nominal * self.jitter_fraction
        return max(0.0, nominal + self._rng.uniform(-spread, spread))


@dataclass
class SourceStats:
    """Traffic meter attached to every source."""

    roundtrips: int = 0
    records_returned: int = 0
    keys_requested: int = 0
    errors: int = 0
    virtual_latency_s: float = 0.0

    def snapshot(self) -> dict[str, float]:
        return {
            "roundtrips": self.roundtrips,
            "records_returned": self.records_returned,
            "keys_requested": self.keys_requested,
            "errors": self.errors,
            "virtual_latency_s": round(self.virtual_latency_s, 6),
        }

    def reset(self) -> None:
        self.roundtrips = 0
        self.records_returned = 0
        self.keys_requested = 0
        self.errors = 0
        self.virtual_latency_s = 0.0


class DataSource(ABC):
    """Base class for simulated remote sources.

    ``rate_limit`` is the service's own limiter: each round-trip spends
    one token, and a round-trip that finds the bucket empty raises
    :class:`RateLimitError` without charging latency.
    """

    def __init__(self, name: str, clock: SimulatedClock,
                 latency: LatencyModel | None = None,
                 page_size: int = 100,
                 rate_limit: TokenBucket | None = None) -> None:
        if page_size < 1:
            raise SourceError("page size must be positive")
        self.name = name
        self.clock = clock
        self.latency = latency or LatencyModel()
        self.page_size = page_size
        self.rate_limit = rate_limit
        self.stats = SourceStats()
        # Several caller threads may fetch from one source (a shared
        # scheduler under a server pool); the meters, rate-limit bucket
        # and latency RNG are shared state and need one lock.
        self._meter_lock = threading.Lock()

    # -- protocol -------------------------------------------------------

    @abstractmethod
    def kinds(self) -> frozenset[str]:
        """Record kinds this source serves."""

    @abstractmethod
    def _lookup(self, kind: str, keys: Sequence[str]) -> dict[str, object]:
        """Backend lookup; no cost accounting (subclasses implement)."""

    @abstractmethod
    def _all_keys(self, kind: str) -> list[str]:
        """All keys of *kind*; no cost accounting."""

    def fetch_many(self, kind: str,
                   keys: Iterable[str]) -> dict[str, object]:
        """Fetch several records in a single charged round-trip.

        Missing keys are silently absent from the result, as a REST
        batch endpoint would behave. Requests larger than the page size
        are charged one round-trip per page.
        """
        self._check_kind(kind)
        key_list = list(keys)
        if not key_list:
            # Nothing to ask for: a real client never issues the
            # round-trip, so neither do we (no page, no charge).
            return {}
        found: dict[str, object] = {}
        with get_tracer().span("source.fetch_many", source=self.name,
                               kind=kind, keys=len(key_list)) as span:
            for start in range(0, len(key_list), self.page_size):
                page = key_list[start:start + self.page_size]
                records = self._lookup(kind, page)
                self._charge(len(records), len(page))
                found.update(records)
            span.set("records", len(found))
        return found

    def fetch(self, kind: str, key: str) -> object | None:
        """Fetch one record (one full round-trip — the naive pattern)."""
        return self.fetch_many(kind, [key]).get(key)

    def scan_keys(self, kind: str) -> list[str]:
        """List every key of *kind*, charged one round-trip per page."""
        self._check_kind(kind)
        all_keys = self._all_keys(kind)
        with get_tracer().span("source.scan_keys", source=self.name,
                               kind=kind, keys=len(all_keys)):
            for start in range(0, len(all_keys), self.page_size):
                page = all_keys[start:start + self.page_size]
                self._charge(len(page), len(page))
        return all_keys

    # -- cost accounting --------------------------------------------------

    def _check_kind(self, kind: str) -> None:
        if kind not in self.kinds():
            raise SourceError(
                f"source {self.name!r} does not serve kind {kind!r}"
            )

    def _charge(self, records: int, requested: int) -> None:
        metrics = get_metrics()
        with self._meter_lock:
            if self.rate_limit is not None:
                now = self.clock.now()
                if not self.rate_limit.try_take(now):
                    self.stats.errors += 1
                    metrics.counter(
                        f"source.rate_limited.{self.name}"
                    ).inc()
                    error = RateLimitError(
                        f"source {self.name!r} rate limit of "
                        f"{self.rate_limit.rate:g} calls/s exceeded"
                    )
                    error.retry_after_s = self.rate_limit.retry_after_s(now)
                    raise error
            cost = self.latency.sample(records)
            self.stats.roundtrips += 1
            self.stats.records_returned += records
            self.stats.keys_requested += requested
            self.stats.virtual_latency_s += cost
            metrics.counter(f"source.roundtrips.{self.name}").inc()
            metrics.counter(f"source.records.{self.name}").inc(records)
            metrics.counter(f"source.virtual_s.{self.name}").inc(cost)
            metrics.histogram("source.roundtrip_latency_s").observe(cost)
        # The clock advance happens outside the meter lock: under a
        # parallel region it only touches the calling thread's timeline.
        self.clock.advance(cost)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class TableBackedSource(DataSource):
    """A source whose kinds are in-memory dictionaries.

    The concrete protein/activity/annotation sources all store their data
    this way; they differ only in how the tables are populated and which
    typed helpers they expose.
    """

    def __init__(self, name: str, clock: SimulatedClock,
                 tables: dict[str, dict[str, object]],
                 latency: LatencyModel | None = None,
                 page_size: int = 100,
                 rate_limit: TokenBucket | None = None) -> None:
        super().__init__(name, clock, latency, page_size, rate_limit)
        self._tables = tables

    def kinds(self) -> frozenset[str]:
        return frozenset(self._tables)

    def _lookup(self, kind: str, keys: Sequence[str]) -> dict[str, object]:
        table = self._tables[kind]
        return {key: table[key] for key in keys if key in table}

    def _all_keys(self, kind: str) -> list[str]:
        return sorted(self._tables[kind])
