"""Engine-level graceful degradation: deadlines and breakers.

The resilient path is opt-in: a plain federated engine keeps the
historical raise-on-fault behaviour, and only a caller-supplied
deadline or a breaker-equipped scheduler switches remote fetches to
degrade-don't-raise.
"""

import pytest

from repro.core import QueryEngine
from repro.errors import QueryError, SourceError, SourceUnavailableError
from repro.obs import MetricsRegistry, set_metrics
from repro.sources import (
    BreakerConfig,
    FaultSchedule,
    FetchScheduler,
    Outage,
    SourceRegistry,
    wrap_registry,
)
from repro.workloads import DatasetConfig, build_dataset

REMOTE_QUERY = "SELECT protein_id, method FROM proteins"


@pytest.fixture(autouse=True)
def fresh_metrics():
    set_metrics(MetricsRegistry())
    yield
    set_metrics(MetricsRegistry())


def make_world(dark_until_s=None):
    """Dataset + drugtree + registry; optionally a dark protein source."""
    dataset = build_dataset(DatasetConfig(n_leaves=12, n_ligands=12,
                                          seed=17))
    registry = dataset.registry
    if dark_until_s is not None:
        registry = wrap_registry(registry, FaultSchedule([
            Outage(0.0, dark_until_s, target="pdb-sim"),
        ]))
    return dataset, dataset.drugtree(), registry


class TestActivation:
    def test_plain_federated_engine_still_raises(self):
        _, drugtree, registry = make_world(dark_until_s=1000.0)
        engine = QueryEngine(drugtree,
                             federation=FetchScheduler(registry))
        with pytest.raises(SourceUnavailableError):
            engine.execute(REMOTE_QUERY)

    def test_numeric_deadline_requires_federation(self):
        _, drugtree, _ = make_world()
        engine = QueryEngine(drugtree)
        with pytest.raises(QueryError, match="federated"):
            engine.execute("SELECT protein_id FROM proteins",
                           deadline=1.0)

    def test_unserved_kind_raises_when_resilient(self):
        # Degradation covers faults of sources that exist; a kind no
        # registered source serves is a configuration error.
        dataset, drugtree, _ = make_world()
        gutted = SourceRegistry()
        gutted.register(dataset.activity_source)
        engine = QueryEngine(drugtree, federation=FetchScheduler(
            gutted, clock=dataset.clock, breaker_config=BreakerConfig()))
        assert engine.federation.degrades()
        with pytest.raises(SourceError, match="no source serves kind"):
            engine.execute(REMOTE_QUERY)
        with pytest.raises(SourceError, match="no source serves kind"):
            engine.execute(REMOTE_QUERY, deadline=5.0)


class TestDegradedExecution:
    def test_breakers_degrade_missing_details(self):
        _, drugtree, registry = make_world(dark_until_s=1000.0)
        scheduler = FetchScheduler(
            registry, max_attempts=1,
            breaker_config=BreakerConfig(failure_threshold=3),
        )
        engine = QueryEngine(drugtree, federation=scheduler)
        result = engine.execute(REMOTE_QUERY)
        assert result.degraded
        assert result.resilience == {"protein": "missing"}
        assert result.rows  # local columns still answered
        assert all(row["protein_id"] for row in result.rows)
        assert all(row["method"] is None for row in result.rows)

    def test_deadline_alone_activates_degradation(self):
        _, drugtree, registry = make_world(dark_until_s=1000.0)
        engine = QueryEngine(drugtree,
                             federation=FetchScheduler(registry,
                                                       max_attempts=1))
        result = engine.execute(REMOTE_QUERY, deadline=5.0)
        assert result.degraded
        assert result.resilience == {"protein": "missing"}

    def test_healthy_resilient_run_is_fresh(self):
        _, drugtree, registry = make_world()
        scheduler = FetchScheduler(registry,
                                   breaker_config=BreakerConfig())
        engine = QueryEngine(drugtree, federation=scheduler)
        result = engine.execute(REMOTE_QUERY)
        assert not result.degraded
        assert result.resilience == {"protein": "fresh"}
        assert all(row["method"] for row in result.rows)


class TestCacheInteraction:
    def test_degraded_results_never_poison_the_cache(self):
        dataset, drugtree, registry = make_world(dark_until_s=5.0)
        scheduler = FetchScheduler(
            registry, max_attempts=1,
            breaker_config=BreakerConfig(failure_threshold=3,
                                         reset_timeout_s=2.0),
        )
        engine = QueryEngine(drugtree, federation=scheduler)

        first = engine.execute(REMOTE_QUERY)
        assert first.degraded

        # Source heals, breaker reset timeout elapses.
        dataset.clock.advance(20.0)
        second = engine.execute(REMOTE_QUERY)
        assert second.cache_outcome == "miss"  # degraded run not cached
        assert not second.degraded
        assert all(row["method"] for row in second.rows)

        third = engine.execute(REMOTE_QUERY)
        assert third.cache_outcome == "exact"  # the fresh run was cached

    def test_without_resilience_a_lost_federation_raises(self):
        dataset, drugtree, _ = make_world()
        engine = QueryEngine(
            drugtree, federation=FetchScheduler(dataset.registry),
        )
        engine.execute(REMOTE_QUERY)
        drugtree.add_binding(dataset.bindings[0])  # expires the cache
        gutted = SourceRegistry()
        gutted.register(dataset.activity_source)
        engine.federation = FetchScheduler(gutted, clock=dataset.clock)
        with pytest.raises(Exception):
            engine.execute(REMOTE_QUERY)


class TestAnalyzeResilience:
    def test_analyze_renders_the_resilience_trailer(self):
        _, drugtree, registry = make_world(dark_until_s=1000.0)
        scheduler = FetchScheduler(
            registry, max_attempts=1,
            breaker_config=BreakerConfig(failure_threshold=2),
        )
        engine = QueryEngine(drugtree, federation=scheduler)
        report = engine.analyze(REMOTE_QUERY + " LIMIT 5")
        assert report.resilience["statuses"] == {"protein": "missing"}
        assert report.resilience["degraded"] is True
        assert "pdb-sim/protein" in report.resilience["breakers"]
        rendered = report.render()
        assert "-- resilience:" in rendered
        assert "DEGRADED" in rendered

    def test_healthy_analyze_has_no_trailer(self):
        _, drugtree, registry = make_world()
        engine = QueryEngine(drugtree,
                             federation=FetchScheduler(registry))
        report = engine.analyze(REMOTE_QUERY + " LIMIT 5")
        assert report.resilience == {}
        assert "-- resilience:" not in report.render()
