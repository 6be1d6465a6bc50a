"""Concurrent multi-source fetch scheduler (scatter/gather).

The abstract blames DrugTree's lag on "data … being obtained from
multiple sources, integrated and then presented to the user". A
federated system does not pay those sources one after another: it
scatters independent round-trips, gathers the results, and pays the
*maximum* latency instead of the sum. :class:`FetchScheduler` is that
scatter/gather layer for this reproduction:

* **Overlap** — a batch of ``(kind, keys)`` requests is fanned across
  the sources inside one :meth:`~repro.sources.clock.SimulatedClock
  .concurrently` region, so virtual time reflects the critical path,
  not the sum of round-trips. Pages run in page order on the calling
  thread (no source blocks, so there is no wall time to overlap).
* **Paging** — key sets larger than a source's page size are split into
  pages *before* dispatch, so the pages themselves overlap instead of
  being serialized inside ``fetch_many``.
* **Coalescing** — duplicate ``(source, kind, key)`` requests are
  served single-flight: duplicates inside one batch collapse before
  dispatch, and a key already in flight (from any thread) is borrowed
  from the existing round-trip instead of re-fetched.
* **Resilience** — transient :class:`SourceUnavailableError` failures
  are retried with exponential virtual backoff (the
  :class:`~repro.sources.wrappers.RetryingSource` semantics), and
  :class:`RateLimitError` rejections wait out the source's window a
  bounded number of times. With a :class:`~repro.sources.resilience
  .BreakerBoard` attached, a source that keeps failing trips its
  per-``(source, kind)`` circuit breaker and later calls are refused
  instantly (:class:`~repro.errors.BreakerOpenError`, no latency
  charged, no retry ladder) until a half-open probe succeeds. A
  :class:`~repro.sources.resilience.Deadline` propagates down into
  page fetches: once the virtual budget is gone, remaining pages are
  cancelled (:class:`~repro.errors.DeadlineExceededError`) instead of
  blocking the caller. :meth:`fetch_all_resilient` turns both into
  graceful degradation — partial results annotated per kind.

Everything is metered: an in-flight gauge (``scheduler.inflight``),
coalesced/page/retry counters, breaker-state gauges, deadline and
borrow-timeout counters, and per-batch spans carrying the overlap
savings (``sequential - critical path`` virtual seconds) that
``EXPLAIN ANALYZE`` and ``repro stats`` surface.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.errors import (
    BorrowTimeoutError,
    BreakerOpenError,
    DeadlineExceededError,
    RateLimitError,
    SourceError,
    SourceUnavailableError,
)
from repro.obs import get_metrics, get_tracer
from repro.sources.clock import SimulatedClock
from repro.sources.registry import SourceRegistry
from repro.sources.resilience import (
    STATUS_FRESH,
    STATUS_MISSING,
    STATUS_PARTIAL,
    BreakerBoard,
    BreakerConfig,
    Deadline,
    FetchOutcome,
)
from repro.sources.wrappers import faults_of

#: Default wall-clock ceiling for borrowing a result from another
#: thread's in-flight round-trip; hitting it means the owner died
#: without resolving its flights (a scheduler bug, not a simulated
#: fault). Configurable per scheduler via ``borrow_timeout_s``.
BORROW_TIMEOUT_S = 30.0


@dataclass
class SchedulerStats:
    """Cumulative scatter/gather accounting for one scheduler."""

    batches: int = 0
    keys_requested: int = 0
    pages_dispatched: int = 0
    coalesced: int = 0
    retries: int = 0
    rate_limit_waits: int = 0
    breaker_skips: int = 0
    deadline_cancelled: int = 0
    borrow_timeouts: int = 0
    degraded_batches: int = 0
    elapsed_virtual_s: float = 0.0
    sequential_virtual_s: float = 0.0

    @property
    def overlap_saved_s(self) -> float:
        """Virtual seconds saved versus sequential round-trips."""
        return max(0.0,
                   self.sequential_virtual_s - self.elapsed_virtual_s)

    def snapshot(self) -> dict[str, float]:
        return {
            "batches": self.batches,
            "keys_requested": self.keys_requested,
            "pages_dispatched": self.pages_dispatched,
            "coalesced": self.coalesced,
            "retries": self.retries,
            "rate_limit_waits": self.rate_limit_waits,
            "breaker_skips": self.breaker_skips,
            "deadline_cancelled": self.deadline_cancelled,
            "borrow_timeouts": self.borrow_timeouts,
            "degraded_batches": self.degraded_batches,
            "elapsed_virtual_s": round(self.elapsed_virtual_s, 6),
            "sequential_virtual_s": round(self.sequential_virtual_s, 6),
            "overlap_saved_s": round(self.overlap_saved_s, 6),
        }


class _Flight:
    """One in-flight ``(source, kind, key)`` lookup, single-flight style."""

    __slots__ = ("event", "found", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.found = False
        self.value: object = None
        self.error: SourceError | None = None


class FetchScheduler:
    """Scatter/gather dispatcher over a :class:`SourceRegistry`.

    ``fetch_all`` is the batch entry point: one call may name several
    kinds (hence several sources) and oversized key sets; everything is
    paged, coalesced, and dispatched as one overlapped region.
    ``fetch_many`` / ``fetch`` are single-kind conveniences over it,
    ``fetch_all_resilient`` the degrade-don't-raise variant. Starts no
    threads; callers may share one across theirs (state is locked).
    """

    def __init__(self, registry: SourceRegistry,
                 clock: SimulatedClock | None = None,
                 max_attempts: int = 3,
                 backoff_s: float = 0.0,
                 max_rate_limit_waits: int = 8,
                 page_size: int | None = None,
                 borrow_timeout_s: float = BORROW_TIMEOUT_S,
                 breakers: BreakerBoard | None = None,
                 breaker_config: BreakerConfig | None = None) -> None:
        if max_attempts < 1:
            raise SourceError("need at least one attempt")
        if backoff_s < 0:
            raise SourceError("backoff must be non-negative")
        if max_rate_limit_waits < 0:
            raise SourceError("rate-limit wait budget must be >= 0")
        if page_size is not None and page_size < 1:
            raise SourceError("page size must be positive")
        if borrow_timeout_s <= 0:
            raise SourceError("borrow timeout must be positive")
        if clock is None:
            sources = registry.sources()
            if not sources:
                raise SourceError(
                    "scheduler needs a clock or a non-empty registry"
                )
            clock = sources[0].clock
        self.registry = registry
        self.clock = clock
        self.max_attempts = max_attempts
        self.backoff_s = backoff_s
        self.max_rate_limit_waits = max_rate_limit_waits
        self.page_size = page_size
        self.borrow_timeout_s = borrow_timeout_s
        #: Per-(source, kind) circuit breakers; ``None`` disables the
        #: breaker path entirely (the zero-overhead default).
        if breakers is None and breaker_config is not None:
            breakers = BreakerBoard(clock, breaker_config)
        self.breakers = breakers
        self.stats = SchedulerStats()
        self._lock = threading.Lock()
        self._inflight: dict[tuple[str, str, str], _Flight] = {}

    # -- public API ---------------------------------------------------------

    def fetch(self, kind: str, key: str) -> object | None:
        return self.fetch_many(kind, [key]).get(key)

    def fetch_many(self, kind: str,
                   keys: Iterable[str]) -> dict[str, object]:
        """Fetch one kind's keys (its pages still overlap)."""
        return self.fetch_all([(kind, keys)]).get(kind, {})

    def fetch_all(
        self, requests: Sequence[tuple[str, Iterable[str]]],
        deadline: Deadline | None = None,
    ) -> dict[str, dict[str, object]]:
        """Fetch several ``(kind, keys)`` requests as one overlapped batch.

        Returns ``{kind: {key: record}}`` with missing keys absent, like
        ``fetch_many``. Requests naming the same kind are merged;
        duplicate keys are fetched once. Any page failure (after the
        retry budget, a tripped breaker, or an expired deadline)
        re-raises here; use :meth:`fetch_all_resilient` to degrade
        instead.
        """
        results, kind_errors = self._gather(requests, deadline)
        for error in kind_errors.values():
            raise error
        return results

    def fetch_all_resilient(
        self, requests: Sequence[tuple[str, Iterable[str]]],
        deadline: Deadline | None = None,
    ) -> FetchOutcome:
        """Like :meth:`fetch_all`, but failures degrade instead of raise.

        Every requested kind comes back annotated: ``fresh`` (all pages
        answered), ``partial`` (some records lost to faults, breakers,
        or the deadline), or ``missing`` (nothing could be served).
        Only :class:`BorrowTimeoutError` — a scheduler bug, not a
        simulated fault — still propagates.
        """
        results, kind_errors = self._gather(requests, deadline)
        outcome = FetchOutcome(records=results)
        for kind, records in results.items():
            error = kind_errors.get(kind)
            if error is None:
                outcome.statuses[kind] = STATUS_FRESH
                continue
            outcome.statuses[kind] = (STATUS_PARTIAL if records
                                      else STATUS_MISSING)
            outcome.errors[kind] = str(error)
        if outcome.degraded:
            with self._lock:
                self.stats.degraded_batches += 1
            get_metrics().counter("scheduler.degraded_batches").inc()
        return outcome

    # -- the gather core ----------------------------------------------------

    def _gather(
        self, requests: Sequence[tuple[str, Iterable[str]]],
        deadline: Deadline | None,
    ) -> tuple[dict[str, dict[str, object]], dict[str, SourceError]]:
        """Scatter/gather one batch; returns results + first error per
        kind in page order (empty dict when everything answered)."""
        metrics = get_metrics()
        wanted, dupes = self._normalize(requests)
        sources = {kind: self.registry.source_for(kind)
                   for kind in wanted}
        results: dict[str, dict[str, object]] = {
            kind: {} for kind in wanted
        }
        kind_errors: dict[str, SourceError] = {}

        owned, borrowed = self._claim_flights(wanted, sources)
        pages = self._paginate(owned, sources)
        coalesced = dupes + len(borrowed)

        with self._lock:
            self.stats.batches += 1
            self.stats.keys_requested += sum(
                len(keys) for keys in wanted.values()
            )
            self.stats.pages_dispatched += len(pages)
            self.stats.coalesced += coalesced
        metrics.counter("scheduler.batches").inc()
        metrics.counter("scheduler.pages").inc(len(pages))
        metrics.counter("scheduler.coalesced").inc(coalesced)

        with get_tracer().span(
            "scheduler.fetch_all",
            kinds=len(wanted), pages=len(pages), coalesced=coalesced,
        ) as span:
            metrics.gauge("scheduler.inflight").set(len(pages))
            with self.clock.concurrently() as region:
                for kind, page in pages:
                    try:
                        with region.task():
                            records = self._fetch_with_retry(
                                sources[kind], kind, page, deadline)
                    except SourceError as exc:
                        kind_errors.setdefault(kind, exc)
                        self._resolve(sources[kind], kind, page, {}, error=exc)
                    else:
                        results[kind].update(records)
                        self._resolve(sources[kind], kind, page, records)
            metrics.gauge("scheduler.inflight").set(0)
            with self._lock:
                self.stats.elapsed_virtual_s += region.elapsed_s
                self.stats.sequential_virtual_s += region.sequential_s
            metrics.counter("scheduler.overlap_saved_virtual_s").inc(
                region.overlap_saved_s
            )
            span.set("elapsed_virtual_s", round(region.elapsed_s, 6))
            span.set("sequential_virtual_s",
                     round(region.sequential_s, 6))
            span.set("overlap_saved_s", round(region.overlap_saved_s, 6))

            for kind, key, flight in borrowed:
                if not flight.event.wait(self.borrow_timeout_s):
                    with self._lock:
                        self.stats.borrow_timeouts += 1
                    metrics.counter("scheduler.borrow_timeout").inc()
                    raise BorrowTimeoutError(
                        f"coalesced fetch of ({kind!r}, {key!r}) was "
                        "never resolved by its owning round-trip "
                        f"within {self.borrow_timeout_s:.1f}s"
                    )
                if flight.error is not None:
                    kind_errors.setdefault(kind, flight.error)
                elif flight.found:
                    results[kind][key] = flight.value

        return results, kind_errors

    # -- batch preparation --------------------------------------------------

    def _normalize(
        self, requests: Sequence[tuple[str, Iterable[str]]],
    ) -> tuple[dict[str, list[str]], int]:
        """Merge requests per kind; count intra-batch duplicate keys."""
        wanted: dict[str, list[str]] = {}
        seen: set[tuple[str, str]] = set()
        dupes = 0
        for kind, keys in requests:
            bucket = wanted.setdefault(kind, [])
            for key in keys:
                slot = (kind, key)
                if slot in seen:
                    dupes += 1
                    continue
                seen.add(slot)
                bucket.append(key)
        return wanted, dupes

    def _claim_flights(
        self, wanted: dict[str, list[str]], sources: dict[str, object],
    ) -> tuple[dict[str, list[str]],
               list[tuple[str, str, _Flight]]]:
        """Split keys into owned (we fetch) and borrowed (in flight)."""
        owned: dict[str, list[str]] = {}
        borrowed: list[tuple[str, str, _Flight]] = []
        with self._lock:
            for kind, keys in wanted.items():
                source_name = sources[kind].name
                for key in keys:
                    slot = (source_name, kind, key)
                    flight = self._inflight.get(slot)
                    if flight is None:
                        self._inflight[slot] = _Flight()
                        owned.setdefault(kind, []).append(key)
                    else:
                        borrowed.append((kind, key, flight))
        return owned, borrowed

    def _paginate(
        self, owned: dict[str, list[str]], sources: dict[str, object],
    ) -> list[tuple[str, list[str]]]:
        pages: list[tuple[str, list[str]]] = []
        for kind, keys in owned.items():
            size = self.page_size or getattr(
                sources[kind], "page_size", len(keys) or 1
            )
            for start in range(0, len(keys), size):
                pages.append((kind, keys[start:start + size]))
        return pages

    def _resolve(self, source, kind: str, page: list[str],
                 records: dict[str, object],
                 error: SourceError | None = None) -> None:
        """Publish a page's outcome to its flights and release them."""
        source_name = source.name
        with self._lock:
            flights = [
                (key, self._inflight.pop((source_name, kind, key), None))
                for key in page
            ]
        for key, flight in flights:
            if flight is None:
                continue
            if error is not None:
                flight.error = error
            elif key in records:
                flight.found = True
                flight.value = records[key]
            flight.event.set()

    # -- page execution ------------------------------------------------------

    def _check_deadline(self, deadline: Deadline | None,
                        source, kind: str) -> None:
        if deadline is None or not deadline.exceeded():
            return
        metrics = get_metrics()
        with self._lock:
            self.stats.deadline_cancelled += 1
        metrics.counter("source.deadline_exceeded").inc()
        metrics.counter(
            f"source.deadline_exceeded.{source.name}"
        ).inc()
        raise DeadlineExceededError(
            f"deadline expired before fetching {kind!r} from "
            f"{source.name!r} (budget {deadline.budget_s:.3f}s)"
        )

    def _fetch_with_retry(self, source, kind: str, page: list[str],
                          deadline: Deadline | None = None,
                          ) -> dict[str, object]:
        metrics = get_metrics()
        breaker = (self.breakers.breaker(source.name, kind)
                   if self.breakers is not None else None)
        attempts = 0
        rate_waits = 0
        while True:
            # Cancelled work costs nothing: the deadline and breaker
            # are consulted before any latency is charged.
            self._check_deadline(deadline, source, kind)
            if breaker is not None and not breaker.allow():
                with self._lock:
                    self.stats.breaker_skips += 1
                metrics.counter("scheduler.breaker_skips").inc()
                raise BreakerOpenError(
                    f"breaker open for ({source.name!r}, {kind!r}); "
                    "call skipped without a round-trip"
                )
            try:
                records = source.fetch_many(kind, page)
            except SourceUnavailableError:
                if breaker is not None:
                    breaker.record_failure()
                attempts += 1
                if attempts >= self.max_attempts:
                    raise
                with self._lock:
                    self.stats.retries += 1
                metrics.counter("scheduler.retries").inc()
                if self.backoff_s:
                    self.clock.advance(
                        self.backoff_s * (2 ** (attempts - 1))
                    )
            except RateLimitError:
                # Rate limiting is load shedding, not darkness: it
                # does not feed the breaker.
                rate_waits += 1
                if rate_waits > self.max_rate_limit_waits:
                    raise
                with self._lock:
                    self.stats.rate_limit_waits += 1
                metrics.counter("scheduler.rate_limit_waits").inc()
                window_s = getattr(faults_of(source), "window_s", None)
                self.clock.sleep(window_s if window_s
                                 else (self.backoff_s or 0.05))
            else:
                if breaker is not None:
                    breaker.record_success()
                return records

    def __repr__(self) -> str:
        return (f"FetchScheduler(batches={self.stats.batches}, "
                f"coalesced={self.stats.coalesced})")
