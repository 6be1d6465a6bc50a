"""Tests for the shared cache front's tenant working-set quotas and
its data-version stamp."""

import pytest

from repro.errors import ServingError
from repro.serving import SharedCacheFront, TenantConfig, TenantRegistry


def _cache(capacity=4, *configs):
    return SharedCacheFront(TenantRegistry(list(configs)),
                            capacity=capacity)


class TestSharedCacheFront:
    def test_rejects_zero_capacity(self):
        with pytest.raises(ServingError):
            _cache(0)

    def test_hit_after_put(self):
        cache = _cache(4, TenantConfig("a"))
        cache.put("k", "a", "value", 0, cost_s=0.2)
        entry = cache.get("k", "a", 0)
        assert entry.value == "value"
        assert cache.saved_virtual_s == pytest.approx(0.2)

    def test_cross_tenant_hits_are_counted(self):
        cache = _cache(4, TenantConfig("a"), TenantConfig("b"))
        cache.put("k", "a", "value", 0)
        assert cache.get("k", "b", 0) is not None
        assert cache.cross_tenant_hits == 1

    def test_quota_from_weight_share(self):
        cache = _cache(8, TenantConfig("a", weight=3.0),
                       TenantConfig("b", weight=1.0))
        assert cache.quota("a") == 6
        assert cache.quota("b") == 2

    def test_explicit_quota_fraction_wins(self):
        cache = _cache(8, TenantConfig("a", cache_quota_fraction=0.25))
        assert cache.quota("a") == 2

    def test_over_quota_insert_evicts_own_lru(self):
        cache = _cache(8, TenantConfig("a", cache_quota_fraction=0.25),
                       TenantConfig("b"))
        cache.put("a1", "a", 1, 0)
        cache.put("b1", "b", 1, 0)
        cache.put("a2", "a", 2, 0)
        # Tenant a is at its 2-entry quota; a third insert evicts a's
        # own oldest entry, never b's.
        cache.put("a3", "a", 3, 0)
        assert cache.get("a1", "a", 0) is None
        assert cache.get("b1", "b", 0) is not None
        assert cache.owned("a") == 2

    def test_flood_cannot_evict_under_quota_tenant(self):
        cache = _cache(4, TenantConfig("flood", weight=1.0),
                       TenantConfig("calm", weight=1.0))
        cache.put("calm-key", "calm", "kept", 0)
        for i in range(20):
            cache.put(f"flood-{i}", "flood", i, 0)
        assert cache.get("calm-key", "calm", 0) is not None
        assert cache.owned("flood") <= cache.quota("flood")

    def test_capacity_eviction_picks_over_quota_owner(self):
        cache = _cache(4, TenantConfig("a", cache_quota_fraction=0.5),
                       TenantConfig("b", cache_quota_fraction=1.0))
        cache.put("a1", "a", 1, 0)
        cache.put("a2", "a", 2, 0)
        cache.put("b1", "b", 1, 0)
        cache.put("b2", "b", 2, 0)
        # Cache full; b is under its (100%) quota only because a holds
        # half — b's next insert must claim a slot from a (at quota),
        # not from b's own newer entries.
        cache.put("b3", "b", 3, 0)
        assert cache.get("a1", "a", 0) is None
        assert cache.get("b1", "b", 0) is not None

    def test_refresh_keeps_original_owner(self):
        cache = _cache(4, TenantConfig("a"), TenantConfig("b"))
        cache.put("k", "a", "old", 0)
        cache.put("k", "b", "new", 0)
        assert cache.get("k", "a", 0).value == "new"
        assert cache.owned("a") == 1
        assert cache.owned("b") == 0

    def test_stats_shape(self):
        cache = _cache(4, TenantConfig("a"))
        cache.put("k", "a", "v", 0)
        cache.get("k", "a", 0)
        cache.get("missing", "a", 0)
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["owned"] == {"a": 1}

    def test_a_newer_version_empties_the_front(self):
        cache = _cache(4, TenantConfig("a"), TenantConfig("b"))
        cache.put("k", "a", "v1", 3)
        cache.put("j", "b", "v1", 3)
        assert cache.get("k", "a", 4) is None
        assert len(cache) == 0
        assert cache.owned("a") == cache.owned("b") == 0
        assert cache.evictions == 0  # an expiry is not an eviction

    def test_a_fill_carrying_an_older_version_is_dropped(self):
        cache = _cache(4, TenantConfig("a"))
        assert cache.get("k", "a", 5) is None
        cache.put("k", "a", "computed before the write", 4)
        assert cache.get("k", "a", 5) is None
        cache.put("k", "a", "current", 5)
        assert cache.get("k", "a", 5).value == "current"
