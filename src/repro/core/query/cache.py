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

Entries are stamped with :attr:`DrugTree.data_version`: the caller
reads it before its lookup and hands the same version to the store. A
lookup or store carrying a newer version empties the whole cache
(finer-grained invalidation is future work, as it was for the poster);
a store carrying an older one was computed before a write the cache has
seen, and is dropped. An insert costs the cache nothing.

A server's worker threads share one engine, hence one cache: the LRU
map, its version and the counters change only under one lock.
Subsumption derives from a snapshot outside it, so the lock stays a
leaf.
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
    kind: str  # "exact" | "subsumed"


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
        self._version = 0  # the data version every entry was computed at
        self._lock = threading.Lock()
        self.exact_hits = 0
        self.subsumption_hits = 0
        self.misses = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- lookup ---------------------------------------------------------------

    def lookup(self, query: Query, version: int) -> CacheHit | None:
        with get_tracer().span("semantic_cache.lookup") as span:
            hit = self._lookup(query, version)
            span.set("outcome", hit.kind if hit is not None else "miss")
        get_metrics().counter(
            "semantic_cache."
            + (f"{hit.kind}_hits" if hit is not None else "misses")
        ).inc()
        return hit

    def _lookup(self, query: Query, version: int) -> CacheHit | None:
        own = query.signature()
        with self._lock:
            emptied = self._restamp(version)
            exact = self._entries.get(own)
            if exact is not None:
                self._entries.move_to_end(own)
                self.exact_hits += 1
                return CacheHit(list(exact.rows), "exact")
            candidates = list(self._entries.items())
        if emptied:
            get_metrics().counter("semantic_cache.invalidations").inc()

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
                return CacheHit(rows, "subsumed")
        with self._lock:
            self.misses += 1
        return None

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

    # -- store / version -------------------------------------------------------

    def store(self, query: Query, rows: list[dict[str, Any]],
              version: int) -> None:
        """Cache a result. Aggregate/limited results are stored for
        exact reuse; full-width results additionally serve subsumption."""
        signature = query.signature()
        entry = _Entry(query, list(rows))
        with self._lock:
            emptied = self._restamp(version)
            if version < self._version:
                return  # computed before a write this cache has seen
            self._entries[signature] = entry
            self._entries.move_to_end(signature)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        if emptied:
            get_metrics().counter("semantic_cache.invalidations").inc()

    def _restamp(self, version: int) -> bool:
        """Empty the cache if *version* is newer than its entries'; True
        when that dropped any (caller holds the lock)."""
        if version <= self._version:
            return False
        self._version = version
        emptied = bool(self._entries)
        self._entries.clear()
        self.invalidations += emptied
        return emptied

    @property
    def hit_rate(self) -> float:
        hits = self.exact_hits + self.subsumption_hits
        total = hits + self.misses
        return hits / total if total else 0.0

    def stats(self) -> dict[str, float]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "exact_hits": self.exact_hits,
                "subsumption_hits": self.subsumption_hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "hit_rate": round(self.hit_rate, 4),
            }
