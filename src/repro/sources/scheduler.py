"""Multi-source fetch scheduler (scatter/gather).

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
* **Coalescing** — duplicate ``(kind, key)`` requests inside one
  batch collapse before dispatch. Batches do not see each other: two
  callers asking for the same key at once each pay their round-trip.
* **Resilience** — every page runs under the primitives of
  :mod:`repro.sources.resilience`: the scheduler's ``RetryLadder``
  (bounded retries with backoff), an optional per-``(source,
  kind)`` circuit breaker that refuses a dark source's pages without
  charging latency, and the caller's ``Deadline``, past which remaining
  pages are cancelled instead of charged. :meth:`fetch_all_resilient`
  turns page failures into graceful degradation — partial results
  annotated per kind — when :meth:`FetchScheduler.degrades` says so (a
  deadline was given or breakers are configured), and raises like
  :meth:`fetch_all` otherwise.

Everything is metered: an in-flight gauge (``scheduler.inflight``),
coalesced/page/retry counters, breaker-state gauges, deadline counters,
and per-batch spans carrying the overlap savings (``sequential -
critical path`` virtual seconds) that ``EXPLAIN ANALYZE`` and ``repro
stats`` surface.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Sequence
from dataclasses import asdict, dataclass

from repro.errors import BreakerOpenError, DeadlineExceededError, SourceError
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
    RetryLadder,
)


@dataclass
class SchedulerStats:
    """Cumulative scatter/gather accounting for one scheduler."""

    batches: int = 0
    keys_requested: int = 0
    pages_dispatched: int = 0
    coalesced: int = 0
    retries: int = 0
    breaker_skips: int = 0
    deadline_cancelled: int = 0
    degraded_batches: int = 0
    elapsed_virtual_s: float = 0.0
    sequential_virtual_s: float = 0.0

    @property
    def overlap_saved_s(self) -> float:
        """Virtual seconds saved versus sequential round-trips."""
        return max(0.0,
                   self.sequential_virtual_s - self.elapsed_virtual_s)

    def snapshot(self) -> dict[str, float]:
        """Every field in declaration order, then the derived saving."""
        fields = {**asdict(self), "overlap_saved_s": self.overlap_saved_s}
        return {name: round(value, 6) for name, value in fields.items()}


class FetchScheduler:
    """Scatter/gather dispatcher over a :class:`SourceRegistry`.

    ``fetch_all`` is the batch entry point: one call may name several
    kinds (hence several sources) and oversized key sets; everything is
    paged, deduplicated, and dispatched as one overlapped region.
    ``fetch_many`` / ``fetch`` are single-kind conveniences over it,
    ``fetch_all_resilient`` the entry that degrades when
    :meth:`degrades` says so. Starts no threads; callers may share one
    across theirs (each batch is the caller's own, the stats and
    breakers are locked).
    """

    def __init__(self, registry: SourceRegistry,
                 clock: SimulatedClock | None = None,
                 max_attempts: int = 3,
                 backoff_s: float = 0.0,
                 page_size: int | None = None,
                 breakers: BreakerBoard | None = None,
                 breaker_config: BreakerConfig | None = None) -> None:
        if page_size is not None and page_size < 1:
            raise SourceError("page size must be positive")
        if clock is None:
            sources = registry.sources()
            if not sources:
                raise SourceError(
                    "scheduler needs a clock or a non-empty registry"
                )
            clock = sources[0].clock
        self.registry = registry
        self.clock = clock
        self.ladder = RetryLadder(clock, self._note, max_attempts,
                                  backoff_s)
        self.page_size = page_size
        #: Per-(source, kind) circuit breakers; ``None`` disables the
        #: breaker path entirely (the zero-overhead default).
        if breakers is None and breaker_config is not None:
            breakers = BreakerBoard(clock, breaker_config)
        self.breakers = breakers
        self.stats = SchedulerStats()
        self._lock = threading.Lock()

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
        re-raises here, whatever :meth:`degrades` says.
        """
        return self._gather(requests, deadline, degrade=False)[0]

    def degrades(self, deadline: object | None = None) -> bool:
        """The federation's one degrade policy: a fault is flagged
        instead of raised when the caller gave a deadline or this
        scheduler runs circuit breakers; a plain scheduler keeps the
        raise-on-fault behaviour."""
        return deadline is not None or self.breakers is not None

    def fetch_all_resilient(
        self, requests: Sequence[tuple[str, Iterable[str]]],
        deadline: Deadline | None = None,
    ) -> FetchOutcome:
        """Like :meth:`fetch_all`, but faults degrade when :meth:`degrades`.

        Every requested kind comes back annotated: ``fresh`` (all pages
        answered), ``partial`` (some records lost to faults, breakers,
        or the deadline), or ``missing`` (nothing could be served).
        Without a deadline or breakers the first error per kind in page
        order is raised, exactly as :meth:`fetch_all` does.
        """
        results, kind_errors = self._gather(requests, deadline,
                                            self.degrades(deadline))
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
            self._note("degraded_batches")
        return outcome

    # -- the gather core ----------------------------------------------------

    def _note(self, stat: str) -> None:
        """Bump one event stat and its ``scheduler.<stat>`` counter."""
        with self._lock:
            setattr(self.stats, stat, getattr(self.stats, stat) + 1)
        get_metrics().counter(f"scheduler.{stat}").inc()

    def _gather(
        self, requests: Sequence[tuple[str, Iterable[str]]],
        deadline: Deadline | None, degrade: bool,
    ) -> tuple[dict[str, dict[str, object]], dict[str, SourceError]]:
        """Scatter/gather one batch; returns results + first error per
        kind in page order (empty dict when everything answered), or
        raises the first of them after the join unless *degrade*."""
        metrics = get_metrics()
        wanted, dupes = self._normalize(requests)
        sources = {kind: self.registry.source_for(kind)
                   for kind in wanted}
        results: dict[str, dict[str, object]] = {
            kind: {} for kind in wanted
        }
        kind_errors: dict[str, SourceError] = {}
        pages = self._paginate(wanted, sources)

        with self._lock:
            self.stats.batches += 1
            self.stats.keys_requested += sum(
                len(keys) for keys in wanted.values()
            )
            self.stats.pages_dispatched += len(pages)
            self.stats.coalesced += dupes
        metrics.counter("scheduler.batches").inc()
        metrics.counter("scheduler.pages").inc(len(pages))
        metrics.counter("scheduler.coalesced").inc(dupes)

        with get_tracer().span(
            "scheduler.fetch_all",
            kinds=len(wanted), pages=len(pages), coalesced=dupes,
        ) as span:
            metrics.gauge("scheduler.inflight").set(len(pages))
            with self.clock.concurrently() as region:
                for kind, page in pages:
                    try:
                        with region.task():
                            results[kind].update(self._fetch_page(
                                sources[kind], kind, page, deadline))
                    except SourceError as exc:
                        kind_errors.setdefault(kind, exc)
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

        if not degrade:
            for error in kind_errors.values():
                raise error
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

    def _paginate(
        self, wanted: dict[str, list[str]], sources: dict[str, object],
    ) -> list[tuple[str, list[str]]]:
        pages: list[tuple[str, list[str]]] = []
        for kind, keys in wanted.items():
            size = self.page_size or getattr(
                sources[kind], "page_size", len(keys) or 1
            )
            for start in range(0, len(keys), size):
                pages.append((kind, keys[start:start + size]))
        return pages

    # -- page execution ------------------------------------------------------

    def _fetch_page(self, source, kind: str, page: list[str],
                    deadline: Deadline | None) -> dict[str, object]:
        """One page under the retry ladder, breaker and deadline."""
        breaker = (self.breakers.breaker(source.name, kind)
                   if self.breakers is not None else None)
        for attempt in self.ladder.attempts(breaker):
            # Cancelled work costs nothing: the deadline and the
            # breaker are consulted before any latency is charged.
            if deadline is not None and deadline.exceeded():
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
            if breaker is not None and not breaker.allow():
                self._note("breaker_skips")
                raise BreakerOpenError(
                    f"breaker open for ({source.name!r}, {kind!r}); "
                    "call skipped without a round-trip"
                )
            with attempt:
                return source.fetch_many(kind, page)

    def __repr__(self) -> str:
        return (f"FetchScheduler(batches={self.stats.batches}, "
                f"coalesced={self.stats.coalesced})")
