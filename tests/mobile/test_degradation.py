"""Mobile graceful degradation: overlay cards, LOD clamping, deadlines.

A phone tapping into a half-dark federation should always get
*something*: a smaller viewport, the overlay's own columns, or a
stale-flagged cached answer — never a stack trace after a timeout.
"""

import pytest

from repro.errors import SourceUnavailableError
from repro.mobile import DrugTreeServer, ServerConfig
from repro.mobile import server as server_module
from repro.obs import MetricsRegistry, set_metrics
from repro.sources import (
    BreakerConfig,
    FaultSchedule,
    FetchScheduler,
    Outage,
    wrap_registry,
)
from repro.workloads import DatasetConfig, build_dataset

DARK = FaultSchedule([
    Outage(0.0, 10_000.0, target=frozenset({"pdb-sim", "go-sim"})),
])


@pytest.fixture(autouse=True)
def fresh_metrics():
    registry = MetricsRegistry()
    set_metrics(registry)
    yield registry
    set_metrics(MetricsRegistry())


def make_server(dark=False, config=None, breakers=True,
                n_leaves=24):
    dataset = build_dataset(DatasetConfig(n_leaves=n_leaves,
                                          n_ligands=20, seed=23))
    registry = dataset.registry
    if dark:
        registry = wrap_registry(registry,
                                 DARK if dark is True else dark)
    scheduler = FetchScheduler(
        registry, max_attempts=1,
        breaker_config=(BreakerConfig(failure_threshold=2,
                                      reset_timeout_s=60.0)
                        if breakers else None),
    )
    server = DrugTreeServer(dataset.drugtree(), config,
                            federation=scheduler)
    return dataset, server, scheduler


class TestDetailsFallback:
    def test_overlay_card_when_sources_are_dark(self, fresh_metrics):
        dataset, server, _ = make_server(dark=True)
        session_id, _ = server.open_session()
        response = server.protein_details(
            session_id, dataset.family.protein_ids[0]
        )
        assert response.status == "stale"
        payload = response.message.payload()
        assert payload["status"] == "stale"
        details = payload["details"]
        assert details["source"] == "local-overlay"
        assert details["organism"]  # the overlay's own column
        counters = fresh_metrics.snapshot()["counters"]
        assert counters["mobile.details_from_overlay"] >= 1
        assert counters["mobile.degraded_responses"] >= 1

    def test_plain_server_still_raises_into_darkness(self):
        dataset, server, _ = make_server(
            dark=True, breakers=False,
            config=ServerConfig(prefetch_details=False),
        )
        session_id, _ = server.open_session()
        with pytest.raises(SourceUnavailableError):
            server.protein_details(session_id,
                                   dataset.family.protein_ids[0])

    def test_healthy_resilient_details_stay_fresh(self):
        dataset, server, _ = make_server(dark=False)
        session_id, _ = server.open_session()
        response = server.protein_details(
            session_id, dataset.family.protein_ids[0]
        )
        assert response.status == "fresh"
        assert "status" not in response.message.payload()


class TestPartialCardsAreNotCached:
    def test_a_card_without_annotations_does_not_outlive_the_fault(
            self, fresh_metrics):
        dataset, server, _ = make_server(
            dark=FaultSchedule([Outage(0.0, 50.0, target="go-sim")]),
            breakers=False, config=ServerConfig(tap_deadline_s=5.0))
        protein_id = dataset.family.protein_ids[0]
        # The viewport prefetch and the tap both see only pdb-sim.
        session_id, _ = server.open_session()
        during = server.protein_details(session_id, protein_id)
        assert during.status == "degraded"
        payload = during.message.payload()
        assert payload["status"] == "degraded"
        assert payload["details"]["method"]
        assert payload["details"]["go_terms"] == []
        assert not server._details
        counters = fresh_metrics.snapshot()["counters"]
        assert counters["mobile.degraded_responses"] == 1

        dataset.clock.advance(60.0)
        healed = server.protein_details(session_id, protein_id)
        assert healed.status == "fresh"
        details = healed.message.payload()["details"]
        assert details["go_terms"] and details["ec_number"]
        # Only now is the record worth keeping: the next tap is a hit
        # on the complete card.
        assert server._details[protein_id].details == details
        again = server.protein_details(session_id, protein_id)
        assert again.message.payload()["details"] == details
        counters = fresh_metrics.snapshot()["counters"]
        assert counters["mobile.prefetch.hits"] == 1
        assert counters["mobile.degraded_responses"] == 1


class TestLodClamping:
    def test_open_breakers_shrink_the_viewport(self, fresh_metrics,
                                               monkeypatch):
        monkeypatch.setattr(server_module, "DEGRADED_LOD_MAX_DEPTH", 1)
        monkeypatch.setattr(server_module, "DEGRADED_LOD_MAX_NODES", 10)
        _, server, scheduler = make_server()
        session_id, healthy = server.open_session()
        healthy_nodes = len(healthy.message.payload()["nodes"])

        breaker = scheduler.breakers.breaker("pdb-sim", "protein")
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "open"

        degraded = server.navigate(session_id, server._root_name)
        assert degraded.status == "degraded"
        payload = degraded.message.payload()
        assert payload["status"] == "degraded"
        assert len(payload["nodes"]) <= 10
        assert len(payload["nodes"]) <= healthy_nodes
        counters = fresh_metrics.snapshot()["counters"]
        assert counters["mobile.degraded_responses"] >= 1

    def test_no_prefetch_into_a_dark_federation(self):
        _, server, scheduler = make_server()
        scheduler.breakers.breaker("pdb-sim", "protein").record_failure()
        scheduler.breakers.breaker("pdb-sim", "protein").record_failure()
        batches_before = scheduler.stats.batches
        server.open_session()
        assert scheduler.stats.batches == batches_before

    def test_recovery_restores_the_full_viewport(self):
        _, server, scheduler = make_server(
            config=ServerConfig(use_delta=False),
        )
        session_id, healthy = server.open_session()
        breaker = scheduler.breakers.breaker("pdb-sim", "protein")
        breaker.record_failure()
        breaker.record_failure()
        degraded = server.navigate(session_id, server._root_name)
        assert degraded.status == "degraded"
        breaker.reset()
        restored = server.navigate(session_id, server._root_name)
        assert restored.status == "fresh"
        assert (len(restored.message.payload()["nodes"])
                == len(healthy.message.payload()["nodes"]))


class TestQueryDeadlines:
    def test_remote_query_degrades_within_the_tap_deadline(self):
        _, server, _ = make_server(
            dark=True, breakers=False,
            config=ServerConfig(tap_deadline_s=5.0),
        )
        session_id, _ = server.open_session()
        response = server.query(
            session_id, "SELECT protein_id, method FROM proteins"
        )
        assert response.status == "degraded"
        payload = response.message.payload()
        assert payload["status"] == "degraded"
        assert payload["resilience"] == {"protein": "missing"}
        assert payload["rows"]  # local columns still answered

    def test_local_queries_are_untouched(self):
        _, server, _ = make_server(
            dark=True, config=ServerConfig(tap_deadline_s=5.0),
        )
        session_id, _ = server.open_session()
        response = server.query(session_id,
                                "SELECT count(*) FROM bindings")
        assert response.status == "fresh"
        assert "status" not in response.message.payload()
