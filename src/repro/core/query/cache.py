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

Only an entry that can contain another query's answer (full-width,
untruncated rows with no similarity or substructure filter) keeps its
query, in a second map of its own; every other entry keeps its rows
and answers its own signature only. A lookup is one dict probe for the
exact signature, and a miss tests only the entries in the subsumer map
— none at all under the mobile tap mix, whose every query aggregates
or carries a LIMIT. An entry is the engine's answer as it came, columns
and a tuple of value tuples: nothing in it can change, so none is copied.

Entries are stamped with :attr:`DrugTree.data_version`: the caller
reads it before its lookup and hands the same version to the store. A
lookup or store carrying a newer version empties the whole cache
(finer-grained invalidation is future work, as it was for the poster);
a store carrying an older one was computed before a write the cache has
seen, and is dropped. An insert costs the cache nothing.

A server's worker threads share one engine, hence one cache: the two
maps and their version change only under one lock.
Subsumption derives from a snapshot outside it, so the lock stays a
leaf.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from operator import itemgetter
from typing import Any

from repro.core.labeling import IntervalLabeling
from repro.core.query.ast import Query
from repro.core.query.predicates import compile_columns
from repro.obs import get_metrics, get_tracer

#: Entries kept before the least recently used is dropped. Replaying
#: the mobile tap mix's query stream through an LRU of 128 / 256 / 512
#: / 1024 entries hits 65 / 81 / 95 / 100 % of its repeated texts
#: (docs/EXECUTION.md).
CACHE_CAPACITY = 1024


#: An answer as stored: its columns and one value tuple per row.
_Entry = tuple[tuple[str, ...], tuple[tuple, ...]]


@dataclass
class CacheHit:
    """A cache answer in result form plus how it was derived."""

    columns: tuple[str, ...]
    values: tuple[tuple, ...]
    kind: str  # "exact" | "subsumed"


def _can_subsume(query: Query) -> bool:
    """Can the answer to *query* contain another query's answer? Only
    full-width, untruncated rows with no similarity or substructure
    filter can; any other entry is reused for its own signature only."""
    return (not query.aggregates and not query.select
            and query.limit is None and query.similar is None
            and query.substructure is None)


def column_reader(columns: tuple[str, ...],
                  column: str) -> Callable[[tuple], Any]:
    """``value tuple -> its value of column``, NULL when it has none."""
    if column not in columns:
        return lambda values: None
    return itemgetter(columns.index(column))


class SemanticCache:
    """LRU semantic result cache (safe to share across threads)."""

    def __init__(self, labeling: IntervalLabeling) -> None:
        self.labeling = labeling
        #: Signature -> the stored answer of every entry, least
        #: recently used first.
        self._entries: OrderedDict[str, _Entry] = OrderedDict()
        #: Signature -> query of the entries that can subsume (see
        #: :func:`_can_subsume`), in the same relative order.
        self._subsumers: OrderedDict[str, Query] = OrderedDict()
        self._version = 0  # the data version every entry was computed at
        self._lock = threading.Lock()

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
                self._touch(own)
            else:
                candidates = [(signature, cached, self._entries[signature])
                              for signature, cached
                              in self._subsumers.items()]
        if exact is not None:
            return CacheHit(*exact, "exact")
        if emptied:
            get_metrics().counter("semantic_cache.invalidations").inc()

        # Entries are immutable once stored: derive from the snapshot.
        for signature, cached, entry in candidates:
            if self._subsumes(cached, query):
                derived = self._derive(entry, query)
                if derived is None:
                    continue
                with self._lock:
                    if signature in self._entries:
                        self._touch(signature)
                return CacheHit(*derived, "subsumed")
        return None

    def _touch(self, signature: str) -> None:
        """Mark an entry most recently used (caller holds the lock)."""
        self._entries.move_to_end(signature)
        if signature in self._subsumers:
            self._subsumers.move_to_end(signature)

    def _subsumes(self, cached: Query, query: Query) -> bool:
        """Is the new query's result provably contained in *cached*'s?"""
        if not _can_subsume(cached):
            return False
        if query.similar is not None or query.substructure is not None:
            return False
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

    def _derive(self, entry: _Entry, query: Query) -> _Entry | None:
        """Recompute *query* over a cached full-width entry.

        Works on the stored value tuples: each predicate is one
        compiled closure (the one the vectorized scans use) over one
        column position; a projection builds tuples only for the rows
        returned. None when the entry cannot answer *query*.
        """
        if query.aggregates:
            return None  # engine re-aggregates itself; keep cache simple
        columns, out = entry
        if query.subtree is not None:  # a drill-down's narrowest filter
            name = query.subtree.node_name
            if not self.labeling.has_name(name) \
                    or out and "leaf_pre" not in columns:
                return None
            low, high = self.labeling.leaf_range(name)
            leaf_pre = column_reader(columns, "leaf_pre")
            out = [values for values in out
                   if low <= leaf_pre(values) < high]
        for column, test in compile_columns(query.predicates):
            value = column_reader(columns, column)
            out = [values for values in out if test(value(values))]
        if query.order_by is not None and (
                not query.select or query.order_by.column in query.select):
            # A sort column the projection drops sorts nothing, as in
            # the engine, whose sort runs above the projection.
            value = column_reader(columns, query.order_by.column)
            out = sorted(out, key=lambda values: (value(values) is not None,
                                                  value(values)),
                         reverse=query.order_by.descending)
        out = out[:query.limit]
        if not out:
            return (), ()
        if not query.select:
            return columns, tuple(out)
        try:
            at = [columns.index(column) for column in query.select]
        except ValueError:
            return None
        return query.select, tuple(tuple(map(values.__getitem__, at))
                                   for values in out)

    # -- store / version -------------------------------------------------------

    def store(self, query: Query, columns: tuple[str, ...],
              values: Sequence[tuple], version: int) -> None:
        """Cache an answer as it is (*values* frozen as a tuple, as the
        engine's are). Aggregate/limited results are stored for exact
        reuse; full-width results additionally serve subsumption."""
        signature = query.signature()
        entry = (columns, tuple(values))
        subsumer = _can_subsume(query)
        with self._lock:
            emptied = self._restamp(version)
            if version < self._version:
                return  # computed before a write this cache has seen
            self._entries[signature] = entry
            if subsumer:
                self._subsumers[signature] = query
            self._touch(signature)
            while len(self._entries) > CACHE_CAPACITY:
                evicted, _ = self._entries.popitem(last=False)
                self._subsumers.pop(evicted, None)
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
        self._subsumers.clear()
        return emptied
