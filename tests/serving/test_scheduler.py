"""Tests for the weighted fair scheduler and tenant primitives."""

import dataclasses

import pytest

from repro.errors import ServingError
from repro.serving import FairScheduler, TenantConfig, TenantRegistry
from repro.serving.frontend import Request


def _request(tenant, seq, arrival=0.0):
    return Request(tenant=tenant, session=f"{tenant}-u0",
                   kind="render", target="clade_0001",
                   arrival_s=arrival, seq=seq)


def _registry(*configs):
    return TenantRegistry(list(configs))


class TestTenantRegistry:
    def test_unknown_tenant_materializes_from_default(self):
        registry = TenantRegistry(
            default_config=TenantConfig("default", queue_limit=7))
        assert registry.config("walk-in").queue_limit == 7
        assert "walk-in" in registry.tenant_ids()

    def test_duplicate_registration_rejected(self):
        registry = _registry(TenantConfig("a"))
        with pytest.raises(ServingError):
            registry.register(TenantConfig("a"))

    def test_weight_share(self):
        registry = _registry(TenantConfig("a", weight=3.0),
                             TenantConfig("b", weight=1.0))
        assert registry.weight_share("a") == pytest.approx(0.75)


    def test_materialized_tenant_copies_every_default_field(self):
        default = TenantConfig("default", weight=2.5, queue_limit=9,
                               cache_quota_fraction=0.3)
        registry = TenantRegistry(default_config=default)
        assert registry.config("walk-in") == dataclasses.replace(
            default, tenant_id="walk-in")

    def test_materialized_tenant_is_registered_once(self):
        registry = _registry(TenantConfig("a"))
        first = registry.config("walk-in")
        assert registry.config("walk-in") is first
        assert len(registry) == 2
        assert registry.tenant_ids() == ["a", "walk-in"]

    def test_weight_share_counts_materialized_tenants(self):
        registry = _registry(TenantConfig("a", weight=1.0))
        # "b" joins at the default weight 1.0: the pool splits in two.
        assert registry.weight_share("b") == pytest.approx(0.5)
        assert registry.weight_share("a") == pytest.approx(0.5)


class TestTenantConfig:
    @pytest.mark.parametrize("kwargs", [
        {"tenant_id": ""},
        {"tenant_id": "a", "weight": 0.0},
        {"tenant_id": "a", "weight": -1.0},
        {"tenant_id": "a", "queue_limit": 0},
        {"tenant_id": "a", "cache_quota_fraction": 0.0},
        {"tenant_id": "a", "cache_quota_fraction": 1.5},
    ])
    def test_rejects_an_impossible_contract(self, kwargs):
        with pytest.raises(ServingError):
            TenantConfig(**kwargs)

    def test_accepts_the_boundaries(self):
        config = TenantConfig("a", weight=0.01, queue_limit=1,
                              cache_quota_fraction=1.0)
        assert config.queue_limit == 1
        assert config.cache_quota_fraction == 1.0


class TestFairScheduler:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ServingError):
            FairScheduler(_registry(), policy="lifo")

    def test_fifo_serves_in_arrival_order(self):
        scheduler = FairScheduler(_registry(), policy="fifo")
        for seq in range(3):
            assert scheduler.try_enqueue(
                _request("a" if seq != 1 else "b", seq),
                now=float(seq), cost_s=1.0)
        served = [scheduler.pop().request.seq for _ in range(3)]
        assert served == [0, 1, 2]

    def test_wfq_interleaves_a_flood_with_a_trickle(self):
        # Tenant a enqueues 10 before b's first request arrives; b
        # still gets served second, not eleventh.
        scheduler = FairScheduler(
            _registry(TenantConfig("a"), TenantConfig("b")))
        for seq in range(10):
            assert scheduler.try_enqueue(_request("a", seq),
                                         now=0.0, cost_s=1.0)
        assert scheduler.try_enqueue(_request("b", 10),
                                     now=0.0, cost_s=1.0)
        order = [scheduler.pop().request.tenant for _ in range(3)]
        assert order == ["a", "b", "a"]

    def test_wfq_weight_doubles_the_share(self):
        scheduler = FairScheduler(
            _registry(TenantConfig("heavy", weight=2.0),
                      TenantConfig("light", weight=1.0)))
        for seq in range(6):
            scheduler.try_enqueue(_request("heavy", seq), 0.0, 1.0)
            scheduler.try_enqueue(_request("light", 100 + seq), 0.0, 1.0)
        served = [scheduler.pop().request.tenant for _ in range(6)]
        assert served.count("heavy") == 4
        assert served.count("light") == 2

    def test_queue_bound_is_per_tenant(self):
        scheduler = FairScheduler(
            _registry(TenantConfig("a", queue_limit=2),
                      TenantConfig("b", queue_limit=2)))
        assert scheduler.try_enqueue(_request("a", 0), 0.0, 1.0)
        assert scheduler.try_enqueue(_request("a", 1), 0.0, 1.0)
        assert not scheduler.try_enqueue(_request("a", 2), 0.0, 1.0)
        # A full queue for tenant a does not block tenant b.
        assert scheduler.try_enqueue(_request("b", 3), 0.0, 1.0)

    def test_queued_cost_accounting(self):
        scheduler = FairScheduler(_registry(TenantConfig("a")))
        scheduler.try_enqueue(_request("a", 0), 0.0, 0.5)
        scheduler.try_enqueue(_request("a", 1), 0.0, 0.25)
        assert scheduler.queued_cost("a") == pytest.approx(0.75)
        scheduler.pop()
        assert scheduler.queued_cost("a") == pytest.approx(0.25)
        assert scheduler.total_queued_cost() == pytest.approx(0.25)

    def test_pop_on_an_empty_scheduler_returns_none(self):
        scheduler = FairScheduler(_registry())
        assert scheduler.pop() is None
        assert len(scheduler) == 0

    def test_fifo_queues_past_the_tenant_bound(self):
        # The naive baseline has no bound: that is how it collapses.
        scheduler = FairScheduler(
            _registry(TenantConfig("a", queue_limit=1)), policy="fifo")
        assert all(scheduler.try_enqueue(_request("a", seq), 0.0, 1.0)
                   for seq in range(3))
        assert scheduler.depth("a") == 3

    def test_active_tenants_are_those_with_a_queue(self):
        scheduler = FairScheduler(
            _registry(TenantConfig("a"), TenantConfig("b")))
        scheduler.try_enqueue(_request("a", 0), 0.0, 1.0)
        scheduler.try_enqueue(_request("b", 1), 0.0, 1.0)
        assert sorted(scheduler.active_tenants()) == ["a", "b"]
        served = scheduler.pop().request.tenant
        assert scheduler.active_tenants() == ["b" if served == "a"
                                              else "a"]
        assert len(scheduler) == 1
        assert scheduler.depth(served) == 0
