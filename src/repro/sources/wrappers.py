"""Source wrappers: the "standards" part of the paper's optimizations.

The abstract says the approach "applies standards as well as uses novel
mechanisms". The standards, for a federated system, are exactly these
wrappers:

* :class:`CachingSource` — answer repeated lookups from a local LRU/TTL
  cache instead of going back to the remote source;
* :class:`PrefetchingSource` — when one key is fetched, pull keys a
  predictor expects next in the *same* round-trip;
* :class:`RetryingSource` — absorb transient outages with bounded
  retries (each retry is charged, like a real timeout-and-retry).

All wrappers implement the same uniform protocol as
:class:`~repro.sources.base.DataSource`, so they stack in any order.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Iterable

from repro.errors import SourceError
from repro.obs import get_metrics, get_tracer
from repro.sources.base import DataSource
from repro.sources.resilience import RetryLadder


class SourceWrapper:
    """Delegating base for source wrappers (shares the uniform dialect)."""

    def __init__(self, inner: DataSource) -> None:
        self.inner = inner

    @property
    def name(self) -> str:
        return self.inner.name

    @property
    def clock(self):
        return self.inner.clock

    @property
    def stats(self):
        return self.inner.stats

    @property
    def page_size(self) -> int:
        return self.inner.page_size

    def kinds(self) -> frozenset[str]:
        return self.inner.kinds()

    def fetch_many(self, kind: str,
                   keys: Iterable[str]) -> dict[str, object]:
        return self.inner.fetch_many(kind, keys)

    def fetch(self, kind: str, key: str) -> object | None:
        return self.fetch_many(kind, [key]).get(key)

    def scan_keys(self, kind: str) -> list[str]:
        return self.inner.scan_keys(kind)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.inner!r})"


class CachingSource(SourceWrapper):
    """LRU + TTL read-through cache over a source.

    TTL is measured in *virtual* seconds. Negative results (key absent at
    the source) are cached too — repeated queries for missing proteins
    are a real workload pattern.
    """

    _MISSING = object()

    def __init__(self, inner: DataSource, capacity: int = 10_000,
                 ttl_s: float | None = None) -> None:
        super().__init__(inner)
        if capacity < 1:
            raise SourceError("cache capacity must be positive")
        if ttl_s is not None and ttl_s <= 0:
            raise SourceError("cache TTL must be positive")
        self.capacity = capacity
        self.ttl_s = ttl_s
        self.hits = 0
        self.misses = 0
        self._cache: OrderedDict[tuple[str, str], tuple[float, object]] = (
            OrderedDict()
        )
        # Several caller threads may fetch through one cache at once;
        # the LRU dict (and hit/miss meters) mutate under this lock.
        # Round-trips to the inner source deliberately happen *outside*
        # it so one caller's miss never blocks another's.
        self._cache_lock = threading.RLock()

    def fetch_many(self, kind: str,
                   keys: Iterable[str]) -> dict[str, object]:
        found: dict[str, object] = {}
        missing: list[str] = []
        hits = 0
        with get_tracer().span("source_cache.fetch_many",
                               source=self.name, kind=kind) as span:
            with self._cache_lock:
                now = self.clock.now()
                for key in keys:
                    slot = (kind, key)
                    entry = self._cache.get(slot)
                    if entry is not None:
                        stored_at, value = entry
                        if (self.ttl_s is None
                                or now - stored_at <= self.ttl_s):
                            self._cache.move_to_end(slot)
                            hits += 1
                            if value is not self._MISSING:
                                found[key] = value
                            continue
                        del self._cache[slot]
                    missing.append(key)
                self.hits += hits
                self.misses += len(missing)
            if missing:
                fetched = self.inner.fetch_many(kind, missing)
                found.update(fetched)
                with self._cache_lock:
                    stored_at = self.clock.now()
                    for key in missing:
                        value = fetched.get(key, self._MISSING)
                        self._store((kind, key), stored_at, value)
            span.set("hits", hits)
            span.set("misses", len(missing))
        metrics = get_metrics()
        if hits:
            metrics.counter(f"source_cache.hits.{self.name}").inc(hits)
        if missing:
            metrics.counter(f"source_cache.misses.{self.name}").inc(
                len(missing)
            )
        return found

    def _store(self, slot: tuple[str, str], stored_at: float,
               value: object) -> None:
        self._cache[slot] = (stored_at, value)
        self._cache.move_to_end(slot)
        while len(self._cache) > self.capacity:
            self._cache.popitem(last=False)

    def peek(self, kind: str, key: str) -> bool:
        """True if the key is cached and fresh (no hit/miss accounting)."""
        with self._cache_lock:
            entry = self._cache.get((kind, key))
            if entry is None:
                return False
            stored_at, _ = entry
            return (self.ttl_s is None
                    or self.clock.now() - stored_at <= self.ttl_s)

    def invalidate(self, kind: str | None = None) -> None:
        """Drop cached entries (all, or one kind's)."""
        with self._cache_lock:
            if kind is None:
                self._cache.clear()
                return
            for slot in [s for s in self._cache if s[0] == kind]:
                del self._cache[slot]

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


#: Given (kind, key), return extra keys likely to be needed soon.
Predictor = Callable[[str, str], list[str]]


class PrefetchingSource(SourceWrapper):
    """Fetch predicted-next keys in the same round-trip.

    Prefetching is only useful if what it pulls is *retained*, so this
    wrapper owns a :class:`CachingSource` internally: each fetch is
    widened with the predictor's suggestions, everything lands in the
    cache, and only the requested keys are returned. A later fetch of a
    predicted key is then a cache hit with zero round-trips.
    """

    def __init__(self, inner: DataSource, predictor: Predictor,
                 capacity: int = 10_000, ttl_s: float | None = None,
                 max_prefetch: int = 32) -> None:
        super().__init__(inner)
        if max_prefetch < 0:
            raise SourceError("max_prefetch must be non-negative")
        self.cache = CachingSource(inner, capacity=capacity, ttl_s=ttl_s)
        self.predictor = predictor
        self.max_prefetch = max_prefetch
        self.prefetched_keys = 0
        # Concurrent scheduler pages share this wrapper; the stat
        # increment is a read-modify-write and needs the guard.
        self._stats_lock = threading.Lock()

    def fetch_many(self, kind: str,
                   keys: Iterable[str]) -> dict[str, object]:
        key_list = list(keys)
        # Prefetching piggybacks on round-trips that have to happen
        # anyway: if every requested key is already cached, no widening.
        any_miss = any(
            not self.cache.peek(kind, key) for key in key_list
        )
        predictions: list[str] = []
        if any_miss:
            seen = set(key_list)
            for key in key_list:
                for predicted in self.predictor(kind, key):
                    if predicted not in seen and not self.cache.peek(
                            kind, predicted):
                        seen.add(predicted)
                        predictions.append(predicted)
                    if len(predictions) >= self.max_prefetch:
                        break
                if len(predictions) >= self.max_prefetch:
                    break
            with self._stats_lock:
                self.prefetched_keys += len(predictions)
            if predictions:
                get_metrics().counter(
                    f"source_prefetch.keys.{self.name}"
                ).inc(len(predictions))
        everything = self.cache.fetch_many(kind, key_list + predictions)
        return {key: everything[key] for key in key_list
                if key in everything}

    @property
    def hit_rate(self) -> float:
        return self.cache.hit_rate


class RetryingSource(SourceWrapper):
    """Retry transient :class:`SourceUnavailableError` failures.

    Each attempt is charged full latency by the inner source; an optional
    backoff adds virtual think-time between attempts, and
    :class:`RateLimitError` rejections wait out the source's window a
    bounded number of times. The policy is a
    :class:`~repro.sources.resilience.RetryLadder`, the same object the
    fetch scheduler holds, so a stacked ``RetryingSource`` and a
    scheduler-dispatched fetch behave alike.
    """

    def __init__(self, inner: DataSource, max_attempts: int = 3,
                 backoff_s: float = 0.0,
                 max_rate_limit_waits: int = 8) -> None:
        super().__init__(inner)
        self.ladder = RetryLadder(inner.clock, self._note, max_attempts,
                                  backoff_s, max_rate_limit_waits)
        self.retries = 0
        self.rate_limit_waits = 0
        # Shared across caller threads; guards the stat increments
        # (never held across the delegate call or a clock charge).
        self._stats_lock = threading.Lock()

    def _note(self, stat: str) -> None:
        with self._stats_lock:
            setattr(self, stat, getattr(self, stat) + 1)
        get_metrics().counter(f"source_retry.{stat}.{self.name}").inc()

    def fetch_many(self, kind: str,
                   keys: Iterable[str]) -> dict[str, object]:
        key_list = list(keys)
        for attempt in self.ladder.attempts():
            with attempt:
                return self.inner.fetch_many(kind, key_list)

    def scan_keys(self, kind: str) -> list[str]:
        for attempt in self.ladder.attempts():
            with attempt:
                return self.inner.scan_keys(kind)
