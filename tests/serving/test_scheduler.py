"""Tests for the weighted fair scheduler and tenant primitives."""

import pytest

from repro.errors import ServingError, SourceError
from repro.serving import (
    FairScheduler,
    TenantConfig,
    TenantRegistry,
    TokenBucket,
)
from repro.serving.frontend import Request


def _request(tenant, seq, arrival=0.0):
    return Request(tenant=tenant, session=f"{tenant}-u0",
                   kind="render", target="clade_0001",
                   arrival_s=arrival, seq=seq)


def _registry(*configs):
    return TenantRegistry(list(configs))


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=2.0, burst=3.0, now=0.0)
        assert all(bucket.try_take(0.0) for _ in range(3))
        assert not bucket.try_take(0.0)
        # Half a second refills one token at 2 rps.
        assert bucket.try_take(0.5)
        assert not bucket.try_take(0.5)

    def test_retry_after_names_the_refill_time(self):
        bucket = TokenBucket(rate=4.0, burst=1.0, now=0.0)
        assert bucket.try_take(0.0)
        assert bucket.retry_after_s(0.0) == pytest.approx(0.25)

    def test_rejects_bad_parameters(self):
        with pytest.raises(SourceError):
            TokenBucket(rate=0.0, burst=1.0)

    def test_rejects_a_burst_that_can_never_grant_a_token(self):
        # A cap below one token sheds forever while retry_after_s
        # keeps promising a refill.
        with pytest.raises(SourceError):
            TokenBucket(rate=10.0, burst=0.5)
        with pytest.raises(ServingError):
            TenantConfig("a", rate_limit_rps=10.0, burst=0.5)

    def test_waiting_out_retry_after_is_enough(self):
        bucket = TokenBucket(rate=3.0, burst=1.0)
        now = 0.0
        for step in range(1, 200):
            now += 0.07 * (step % 5)
            if not bucket.try_take(now):
                now += bucket.retry_after_s(now)
                assert bucket.try_take(now), now


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
