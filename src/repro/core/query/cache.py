"""Semantic query-result cache with predicate subsumption.

The third "novel mechanism". Beyond exact-match result reuse, the cache
answers a query from a *broader* cached result when it can prove
containment:

* same table set, full-width cached rows (no projection/aggregation);
* every cached predicate is implied by some predicate of the new query
  (so the new result is a subset of the cached rows);
* the cached subtree contains the new query's subtree (interval
  labeling makes this an O(1) check).

On a subsumption hit the engine re-applies the new query's predicates,
subtree range, projection, order and limit to the cached rows — pure
in-memory work, no table or source access.

Any mutation of an overlay table invalidates the whole cache (DrugTree
workloads are read-dominated; finer-grained invalidation is future
work, as it was for the poster).

Invalidated and LRU-evicted entries are not discarded outright: they
move to a bounded *stale* store. When the federation cannot answer — a
source in an outage, a tripped circuit breaker, an expired deadline —
the engine may call :meth:`SemanticCache.lookup_stale` and serve the
last known result, clearly flagged ``stale`` (see docs/RESILIENCE.md).
An answer that is seconds out of date beats no answer on a phone.

A server's worker threads share one engine, hence one cache: the two
LRU maps and the hit counters change only under one lock. Subsumption
derives from a snapshot outside it, so the lock stays a leaf.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from repro.core.labeling import IntervalLabeling
from repro.core.query.ast import Query
from repro.core.query.predicates import compile_residual
from repro.errors import QueryError
from repro.obs import get_metrics, get_tracer


@dataclass
class CacheHit:
    """A cache answer plus how it was derived."""

    rows: list[dict[str, Any]]
    kind: str  # "exact" | "subsumed" | "stale"
    source_signature: str


@dataclass
class _Entry:
    query: Query
    rows: list[dict[str, Any]]


class SemanticCache:
    """LRU semantic result cache (safe to share across threads)."""

    def __init__(self, labeling: IntervalLabeling,
                 capacity: int = 128) -> None:
        if capacity < 1:
            raise QueryError("cache capacity must be positive")
        self.labeling = labeling
        self.capacity = capacity
        self._entries: OrderedDict[str, _Entry] = OrderedDict()
        #: Last-known results displaced by invalidation or LRU
        #: eviction; servable only through :meth:`lookup_stale`.
        self._stale: OrderedDict[str, _Entry] = OrderedDict()
        self._lock = threading.Lock()
        self.exact_hits = 0
        self.subsumption_hits = 0
        self.stale_hits = 0
        self.misses = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- lookup ---------------------------------------------------------------

    def lookup(self, query: Query) -> CacheHit | None:
        with get_tracer().span("semantic_cache.lookup") as span:
            hit = self._lookup(query)
            span.set("outcome", hit.kind if hit is not None else "miss")
        get_metrics().counter(
            "semantic_cache."
            + (f"{hit.kind}_hits" if hit is not None else "misses")
        ).inc()
        return hit

    def _lookup(self, query: Query) -> CacheHit | None:
        own = query.signature()
        with self._lock:
            exact = self._entries.get(own)
            if exact is not None:
                self._entries.move_to_end(own)
                self.exact_hits += 1
                return CacheHit(list(exact.rows), "exact", own)
            candidates = list(self._entries.items())

        # Entries are immutable once stored: derive from the snapshot.
        for signature, entry in candidates:
            if self._subsumes(entry.query, query):
                rows = self._derive(entry.rows, query)
                if rows is None:
                    continue
                with self._lock:
                    if signature in self._entries:
                        self._entries.move_to_end(signature)
                    self.subsumption_hits += 1
                return CacheHit(rows, "subsumed", signature)
        with self._lock:
            self.misses += 1
        return None

    def lookup_stale(self, query: Query) -> CacheHit | None:
        """Last-known result for *query* from the stale store.

        The degradation path: called only when live execution cannot
        answer (open breakers, expired deadline, dark sources). A live
        entry still wins if one exists; otherwise an exact-signature
        stale entry is served, flagged ``"stale"`` so callers surface
        the freshness downgrade instead of hiding it.
        """
        signature = query.signature()
        with self._lock:
            live = self._entries.get(signature)
            if live is not None:
                return CacheHit(list(live.rows), "stale", signature)
            entry = self._stale.get(signature)
            if entry is None:
                return None
            self._stale.move_to_end(signature)
            self.stale_hits += 1
            rows = list(entry.rows)
        get_metrics().counter("semantic_cache.stale_hits").inc()
        return CacheHit(rows, "stale", signature)

    def _subsumes(self, cached: Query, query: Query) -> bool:
        """Is the new query's result provably contained in *cached*'s?"""
        if cached.aggregates or cached.select:
            return False  # only full-width row sets can be reused
        if cached.similar is not None or query.similar is not None:
            return False
        if (cached.substructure is not None
                or query.substructure is not None):
            return False
        if cached.limit is not None:
            return False  # truncated results are not reusable
        if cached.tables() != query.tables():
            return False
        for cached_pred in cached.predicates:
            if not any(new_pred.implies(cached_pred)
                       for new_pred in query.predicates):
                return False
        if cached.subtree is not None:
            if query.subtree is None:
                return False
            if not self._subtree_contains(cached.subtree.node_name,
                                          query.subtree.node_name):
                return False
        return True

    def _subtree_contains(self, outer: str, inner: str) -> bool:
        if outer == inner:
            return True
        if not (self.labeling.has_name(outer)
                and self.labeling.has_name(inner)):
            return False
        return self.labeling.is_ancestor(outer, inner)

    def _derive(self, rows: list[dict[str, Any]],
                query: Query) -> list[dict[str, Any]] | None:
        """Recompute *query* over cached full-width rows.

        Predicates compile once per derivation (same closures the
        engines share, see ``predicates.py``) — cached entries can
        hold tens of thousands of full-width rows, and per-row
        ``matches`` dispatch over them used to cost more than simply
        re-executing the query.
        """
        residual = compile_residual(query.predicates)
        out = [row for row in rows if residual(row)]
        if query.subtree is not None:
            if not self.labeling.has_name(query.subtree.node_name):
                return None
            low, high = self.labeling.leaf_range(query.subtree.node_name)
            if rows and "leaf_pre" not in rows[0]:
                return None
            out = [row for row in out if low <= row["leaf_pre"] < high]
        if query.aggregates:
            return None  # engine re-aggregates itself; keep cache simple
        if query.order_by is not None:
            column = query.order_by.column
            out.sort(
                key=lambda row: (row.get(column) is not None,
                                 row.get(column)),
                reverse=query.order_by.descending,
            )
        if query.limit is not None:
            out = out[:query.limit]
        if query.select:
            try:
                out = [
                    {column: row[column] for column in query.select}
                    for row in out
                ]
            except KeyError:
                return None
        else:
            out = [dict(row) for row in out]
        return out

    # -- store / invalidate -----------------------------------------------------

    def store(self, query: Query, rows: list[dict[str, Any]]) -> None:
        """Cache a result. Aggregate/limited results are stored for
        exact reuse; full-width results additionally serve subsumption."""
        signature = query.signature()
        entry = _Entry(query, list(rows))
        with self._lock:
            self._entries[signature] = entry
            self._entries.move_to_end(signature)
            self._stale.pop(signature, None)  # live entry shadows stale
            while len(self._entries) > self.capacity:
                evicted_signature, evicted = self._entries.popitem(
                    last=False)
                self._demote(evicted_signature, evicted)

    def invalidate(self) -> None:
        # Demote rather than discard: an invalidated entry is no longer
        # a correct answer, but it is still the *last known* one, which
        # the degradation path may serve (flagged) when sources are dark.
        with self._lock:
            for signature, entry in self._entries.items():
                self._demote(signature, entry)
            self._entries.clear()
            self.invalidations += 1
        get_metrics().counter("semantic_cache.invalidations").inc()

    def _demote(self, signature: str, entry: _Entry) -> None:
        self._stale[signature] = entry
        self._stale.move_to_end(signature)
        while len(self._stale) > self.capacity:
            self._stale.popitem(last=False)

    @property
    def hit_rate(self) -> float:
        hits = self.exact_hits + self.subsumption_hits
        total = hits + self.misses
        return hits / total if total else 0.0

    def stats(self) -> dict[str, float]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "stale_entries": len(self._stale),
                "exact_hits": self.exact_hits,
                "subsumption_hits": self.subsumption_hits,
                "stale_hits": self.stale_hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "hit_rate": round(self.hit_rate, 4),
            }
