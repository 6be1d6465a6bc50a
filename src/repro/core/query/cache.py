"""Semantic query-result cache: each entry answers its own signature.

The third "novel mechanism". An entry is keyed by the query's canonical
signature (:meth:`Query.signature`) and answers that signature only: a
lookup is one dict probe. A narrower query than a cached one is a miss
and runs; answering it from the broader entry cost more wall time than
re-executing, and no tap of the mobile mix ever did (docs/EXECUTION.md).
An entry is the engine's answer as it came, columns and a tuple of
value tuples: nothing in it can change, so none is copied.

Entries are stamped with :attr:`DrugTree.data_version`: the caller
reads it before its lookup and hands the same version to the store. A
lookup or store carrying a newer version empties the whole cache
(finer-grained invalidation is future work, as it was for the poster);
a store carrying an older one was computed before a write the cache has
seen, and is dropped. An insert costs the cache nothing.

A server's worker threads share one engine, hence one cache: the entry
map and its version change only under one lock, a leaf.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Sequence

from repro.core.query.ast import Query
from repro.obs import Binding, get_metrics, get_tracer

#: Entries kept before the least recently used is dropped. Replaying
#: the mobile tap mix's query stream through an LRU of 128 / 256 / 512
#: / 1024 entries hits 65 / 81 / 95 / 100 % of its repeated texts
#: (docs/EXECUTION.md).
CACHE_CAPACITY = 1024

#: ``SemanticCache.lookup``'s two outcome counters, one binding each,
#: so that neither exists before its outcome has happened.
_MISSES = Binding(lambda metrics: metrics.counter("semantic_cache.misses"))
_EXACT_HITS = Binding(
    lambda metrics: metrics.counter("semantic_cache.exact_hits"))


#: An answer as stored: its columns and one value tuple per row.
_Entry = tuple[tuple[str, ...], tuple[tuple, ...]]


class SemanticCache:
    """LRU result cache keyed by query signature (safe to share across
    threads)."""

    def __init__(self) -> None:
        #: Signature -> the stored answer, least recently used first.
        self._entries: OrderedDict[str, _Entry] = OrderedDict()
        self._version = 0  # the data version every entry was computed at
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, query: Query, version: int) -> _Entry | None:
        """The stored ``(columns, values)`` of *query*'s signature at
        *version*, or None."""
        signature = query.signature()
        with get_tracer().span("semantic_cache.lookup") as span:
            with self._lock:
                emptied = self._restamp(version)
                entry = self._entries.get(signature)
                if entry is not None:
                    self._entries.move_to_end(signature)
            span.set("outcome", "miss" if entry is None else "exact")
        if emptied:
            get_metrics().counter("semantic_cache.invalidations").inc()
        (_MISSES if entry is None else _EXACT_HITS).get().inc()
        return entry

    def store(self, query: Query, columns: tuple[str, ...],
              values: Sequence[tuple], version: int) -> None:
        """Cache an answer as it is (*values* frozen as a tuple, as the
        engine's are)."""
        signature = query.signature()
        entry = (columns, tuple(values))
        with self._lock:
            emptied = self._restamp(version)
            if version < self._version:
                return  # computed before a write this cache has seen
            self._entries[signature] = entry
            self._entries.move_to_end(signature)
            while len(self._entries) > CACHE_CAPACITY:
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
        return emptied
