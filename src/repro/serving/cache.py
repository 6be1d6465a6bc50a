"""Shared response cache front with per-tenant working-set accounting.

The serving layer's first line of defense: identical hot requests
(render a popular clade, re-run a dashboard query) are answered from a
shared LRU without touching the server, the engine, or the federation.
*Shared* is the point — a viewport render or DTQL result is
tenant-independent, so tenant B hits entries tenant A warmed.

Sharing creates an attack surface: one tenant streaming distinct
requests would churn the LRU and evict everyone else's working set.
Every entry is therefore *owned* by the tenant that inserted it, and
each tenant has a quota (an explicit fraction, or its fair weight
share). Inserting over quota evicts from the inserting tenant's own
entries first; a global-capacity eviction picks its victim among
tenants at-or-over quota. Under-quota tenants' working sets survive a
flood by construction (see ``tests/serving/test_cache.py``).

Entries are stamped with :attr:`DrugTree.data_version` like every
cached answer (see :mod:`repro.core.query.cache`), so no response
outlives an insert.

Driven by the frontend's deterministic event loop; not thread-safe.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from repro.errors import ServingError
from repro.obs import get_metrics
from repro.serving.tenancy import TenantRegistry


@dataclass
class _Entry:
    owner: str
    value: Any
    #: Virtual seconds the miss cost; reported as savings on each hit.
    cost_s: float


class SharedCacheFront:
    """Keyed LRU response cache with tenant ownership quotas."""

    def __init__(self, tenants: TenantRegistry,
                 capacity: int = 512) -> None:
        if capacity < 1:
            raise ServingError("cache capacity must be positive")
        self.tenants = tenants
        self.capacity = capacity
        self._entries: OrderedDict[Any, _Entry] = OrderedDict()
        self._owned: dict[str, int] = {}
        self._version = 0  # the data version every entry was computed at
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.cross_tenant_hits = 0
        self.saved_virtual_s = 0.0

    def __len__(self) -> int:
        return len(self._entries)

    def quota(self, tenant_id: str) -> int:
        """Entries *tenant_id* may own before evicting its own LRU."""
        config = self.tenants.config(tenant_id)
        fraction = config.cache_quota_fraction
        if fraction is None:
            fraction = self.tenants.weight_share(tenant_id)
        return max(1, int(self.capacity * fraction))

    def owned(self, tenant_id: str) -> int:
        return self._owned.get(tenant_id, 0)

    # -- lookup / insert ----------------------------------------------------

    def get(self, key: Any, tenant_id: str,
            version: int) -> _Entry | None:
        self._restamp(version)
        entry = self._entries.get(key)
        metrics = get_metrics()
        if entry is None:
            self.misses += 1
            metrics.counter("serving.cache.misses").inc()
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        self.saved_virtual_s += entry.cost_s
        metrics.counter("serving.cache.hits").inc()
        if entry.owner != tenant_id:
            self.cross_tenant_hits += 1
            metrics.counter("serving.cache.cross_tenant_hits").inc()
        return entry

    def put(self, key: Any, tenant_id: str, value: Any, version: int,
            cost_s: float = 0.0) -> None:
        self._restamp(version)
        if version < self._version:
            return  # computed before a write this front has seen
        existing = self._entries.get(key)
        if existing is not None:
            # Refresh in place; ownership stays with the first warmer.
            existing.value = value
            existing.cost_s = cost_s
            self._entries.move_to_end(key)
            return
        if self.owned(tenant_id) >= self.quota(tenant_id):
            self._evict_owned_by(tenant_id)
        elif len(self._entries) >= self.capacity:
            self._evict_over_quota()
        self._entries[key] = _Entry(tenant_id, value, cost_s)
        self._owned[tenant_id] = self.owned(tenant_id) + 1

    def _restamp(self, version: int) -> None:
        """Empty the front if *version* is newer than its entries'."""
        if version > self._version:
            self._version = version
            self._entries.clear()
            self._owned.clear()

    # -- eviction -----------------------------------------------------------

    def _remove(self, key: Any) -> None:
        entry = self._entries.pop(key)
        self._owned[entry.owner] = self._owned.get(entry.owner, 1) - 1
        self.evictions += 1
        get_metrics().counter("serving.cache.evictions").inc()

    def _evict_owned_by(self, tenant_id: str) -> None:
        """Evict the tenant's own least-recently-used entry."""
        for key, entry in self._entries.items():
            if entry.owner == tenant_id:
                self._remove(key)
                return

    def _evict_over_quota(self) -> None:
        """Global-capacity eviction: LRU among at-or-over-quota owners.

        The capacity being full while every owner is under quota can
        only happen when quota fractions under-cover the capacity; the
        plain LRU fallback handles that configuration.
        """
        for key, entry in self._entries.items():
            if self.owned(entry.owner) >= self.quota(entry.owner):
                self._remove(key)
                return
        oldest = next(iter(self._entries), None)
        if oldest is not None:
            self._remove(oldest)

    def stats(self) -> dict[str, Any]:
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "cross_tenant_hits": self.cross_tenant_hits,
            "evictions": self.evictions,
            "saved_virtual_s": round(self.saved_virtual_s, 6),
            "owned": {tenant: count
                      for tenant, count in sorted(self._owned.items())
                      if count},
        }
