"""Tests for admission control decisions and the cost model."""

import pytest

from repro.errors import OverloadError, ServingError
from repro.serving import (
    REASON_OVERLOAD,
    REASON_QUEUE_FULL,
    AdmissionConfig,
    AdmissionController,
    FairScheduler,
    ServiceCostModel,
    TenantConfig,
    TenantRegistry,
    admission,
    tenancy,
)
from repro.serving.frontend import Request


def _request(tenant, kind="render", seq=0):
    return Request(tenant=tenant, session=f"{tenant}-u0", kind=kind,
                   target="clade_0001", arrival_s=0.0, seq=seq)


def _controller(*tenant_configs, workers=2, slo_s=1.0,
                priors=None, breakers=None, headroom=1.0):
    tenants = TenantRegistry(list(tenant_configs))
    model = ServiceCostModel(priors or {"render": 0.1})
    scheduler = FairScheduler(tenants)
    controller = AdmissionController(
        AdmissionConfig(slo_s=slo_s, headroom=headroom),
        tenants, model, workers=workers, breakers=breakers,
    )
    return controller, scheduler, model


class TestServiceCostModel:
    def test_ewma_tracks_observations(self, monkeypatch):
        monkeypatch.setattr(admission, "COST_ALPHA", 0.5)
        model = ServiceCostModel({"render": 0.1})
        model.observe("render", 0.3)
        assert model.estimate_s("render") == pytest.approx(0.2)

    def test_unknown_kind_uses_default(self, monkeypatch):
        monkeypatch.setattr(admission, "DEFAULT_COST_S", 0.07)
        model = ServiceCostModel({})
        assert model.estimate_s("query") == pytest.approx(0.07)

    def test_first_observation_replaces_the_default(self):
        model = ServiceCostModel({})
        model.observe("query", 0.4)
        assert model.estimate_s("query") == pytest.approx(0.4)

    def test_snapshot_is_a_copy(self):
        model = ServiceCostModel({"render": 0.1})
        snapshot = model.snapshot()
        snapshot["render"] = 9.0
        assert model.estimate_s("render") == pytest.approx(0.1)


class TestAdmissionConfig:
    @pytest.mark.parametrize("kwargs", [
        {"slo_s": 0.0},
        {"slo_s": -1.0},
        {"headroom": 0.0},
        {"headroom": -0.5},
    ])
    def test_rejects_non_positive_knobs(self, kwargs):
        with pytest.raises(ServingError):
            AdmissionConfig(**kwargs)

    def test_needs_a_worker(self):
        tenants = TenantRegistry()
        with pytest.raises(ServingError):
            AdmissionController(AdmissionConfig(), tenants,
                                ServiceCostModel({}), workers=0)


class TestAdmission:
    def test_admits_when_idle(self):
        controller, scheduler, _ = _controller(TenantConfig("a"))
        assert controller.decide(_request("a"), scheduler) is None

    def test_queue_full_sheds(self, monkeypatch):
        monkeypatch.setattr(tenancy, "QUEUE_LIMIT", 1)
        controller, scheduler, _ = _controller(TenantConfig("a"))
        scheduler.try_enqueue(_request("a"), 0.0, 0.1)
        rejection = controller.decide(_request("a", seq=1), scheduler)
        assert rejection.reason == REASON_QUEUE_FULL

    def test_overload_sheds_when_backlog_exceeds_slo(self):
        controller, scheduler, _ = _controller(
            TenantConfig("a"), workers=1, slo_s=0.5)
        for seq in range(10):
            scheduler.try_enqueue(_request("a", seq=seq), 0.0, 0.2)
        rejection = controller.decide(_request("a", seq=99), scheduler)
        assert rejection.reason == REASON_OVERLOAD
        # The hint names how far past the budget the backlog runs.
        assert rejection.retry_after_s > 0.5

    def test_one_tenants_backlog_does_not_shed_another(self):
        controller, scheduler, _ = _controller(
            TenantConfig("flood"), TenantConfig("calm"),
            workers=2, slo_s=0.5)
        for seq in range(50):
            scheduler.try_enqueue(_request("flood", seq=seq), 0.0, 0.2)
        assert controller.decide(_request("calm"), scheduler) is None

    def test_fifo_backlog_sheds_everyone(self):
        tenants = TenantRegistry([TenantConfig("flood"),
                                  TenantConfig("calm")])
        model = ServiceCostModel({"render": 0.1})
        scheduler = FairScheduler(tenants, policy="fifo")
        controller = AdmissionController(
            AdmissionConfig(slo_s=0.5), tenants, model, workers=2)
        for seq in range(50):
            scheduler.try_enqueue(_request("flood", seq=seq), 0.0, 0.2)
        rejection = controller.decide(_request("calm"), scheduler)
        assert rejection is not None
        assert rejection.reason == REASON_OVERLOAD

    def test_open_breakers_shed_earlier(self):
        class _Board:
            def open_fraction(self):
                return 1.0

        calm, scheduler, _ = _controller(
            TenantConfig("a"), workers=1, slo_s=0.5,
            priors={"render": 0.2})
        degraded, _, _ = _controller(
            TenantConfig("a"), workers=1, slo_s=0.5,
            priors={"render": 0.2}, breakers=_Board())
        # Same request, same empty queue: estimates triple (1 + 1*2.0)
        # under a fully open board and blow the budget.
        assert calm.decide(_request("a"), scheduler) is None
        assert degraded.estimated_cost_s("render") == pytest.approx(0.6)
        rejection = degraded.decide(_request("a"),
                                    FairScheduler(degraded.tenants))
        assert rejection is not None

    def test_overload_error_carries_hints(self):
        error = OverloadError("shed", reason=REASON_OVERLOAD,
                              tenant="a", retry_after_s=0.4)
        assert error.reason == REASON_OVERLOAD
        assert error.tenant == "a"
        assert error.retry_after_s == pytest.approx(0.4)

    def test_queue_full_hint_has_a_floor(self, monkeypatch):
        # A queued request with a near-zero estimate still gets a
        # back-off hint clients cannot busy-loop on.
        monkeypatch.setattr(tenancy, "QUEUE_LIMIT", 1)
        controller, scheduler, _ = _controller(
            TenantConfig("a"), priors={"render": 1e-6})
        scheduler.try_enqueue(_request("a"), 0.0, 1e-6)
        rejection = controller.decide(_request("a", seq=1), scheduler)
        assert rejection.reason == REASON_QUEUE_FULL
        assert rejection.retry_after_s == pytest.approx(0.05)

    def test_headroom_admits_what_the_bare_budget_sheds(self):
        strict, scheduler, _ = _controller(
            TenantConfig("a"), workers=1, slo_s=0.5,
            priors={"render": 0.2})
        lenient, _, _ = _controller(
            TenantConfig("a"), workers=1, slo_s=0.5,
            priors={"render": 0.2}, headroom=2.0)
        for seq in range(2):
            scheduler.try_enqueue(_request("a", seq=seq), 0.0, 0.2)
        # Wait 0.4 + own 0.2 = 0.6: over 0.5, under 0.5 * 2.0.
        assert strict.decide(_request("a", seq=9), scheduler).reason \
            == REASON_OVERLOAD
        assert lenient.decide(_request("a", seq=9), scheduler) is None

    def test_closed_breakers_cost_nothing(self):
        class _Board:
            def open_fraction(self):
                return 0.0

        controller, _, _ = _controller(
            TenantConfig("a"), priors={"render": 0.2}, breakers=_Board())
        assert controller.estimated_cost_s("render") == pytest.approx(0.2)

    def test_fifo_wait_is_the_whole_backlog_over_the_pool(self):
        tenants = TenantRegistry([TenantConfig("a"), TenantConfig("b")])
        controller = AdmissionController(
            AdmissionConfig(), tenants, ServiceCostModel({}), workers=2)
        scheduler = FairScheduler(tenants, policy="fifo")
        scheduler.try_enqueue(_request("a"), 0.0, 0.6)
        scheduler.try_enqueue(_request("b", seq=1), 0.0, 0.2)
        assert controller.estimated_wait_s("b", scheduler) == \
            pytest.approx(0.4)

    def test_wfq_wait_counts_only_the_tenants_own_backlog(self):
        controller, scheduler, _ = _controller(
            TenantConfig("a"), TenantConfig("b"), workers=2)
        scheduler.try_enqueue(_request("a"), 0.0, 0.6)
        scheduler.try_enqueue(_request("b", seq=1), 0.0, 0.2)
        # Two active tenants of equal weight: each drains at 1 worker.
        assert controller.estimated_wait_s("b", scheduler) == \
            pytest.approx(0.2)
        assert controller.estimated_wait_s("a", scheduler) == \
            pytest.approx(0.6)
