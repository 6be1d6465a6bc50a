"""Tests for later-added features: EXPLAIN ANALYZE and the
cache-soundness property."""

import pytest

from repro.core import EngineConfig, QueryEngine
from repro.workloads import (
    DatasetConfig,
    QueryGenerator,
    WorkloadConfig,
    build_dataset,
)


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(DatasetConfig(n_leaves=16, n_ligands=25,
                                       seed=91))


@pytest.fixture(scope="module")
def drugtree(dataset):
    return dataset.drugtree()


class TestExplainAnalyze:
    def test_reports_plan_and_actuals(self, drugtree):
        engine = QueryEngine(drugtree)
        text = engine.explain_analyze(
            "SELECT * FROM bindings WHERE p_affinity >= 7.0"
        )
        assert "cost=" in text
        assert "-- actual:" in text
        assert "scanned" in text

    def test_actual_rows_match_execution(self, drugtree):
        engine = QueryEngine(drugtree,
                             EngineConfig(use_semantic_cache=False))
        dtql = "SELECT * FROM bindings WHERE potent = true"
        executed = len(engine.execute(dtql).rows)
        analyzed = engine.explain_analyze(dtql)
        assert f"{executed} rows" in analyzed


class TestCacheSoundness:
    def test_property_every_cache_answer_matches_fresh_execution(
            self, dataset, drugtree):
        """The strongest cache invariant: on a realistic session, every
        answer the cached engine returns (hit or miss) must be
        row-identical to a cache-free engine."""
        generator = QueryGenerator(dataset.family, dataset.ligands,
                                   seed=17)
        queries = []
        for session_seed in range(3):
            queries.extend(generator.navigation_session(
                steps=6, revisit_probability=0.5,
            ))
        queries.extend(generator.workload(
            WorkloadConfig(n_queries=15, seed=18)
        ))

        cached = QueryEngine(drugtree, EngineConfig())
        fresh = QueryEngine(drugtree,
                            EngineConfig(use_semantic_cache=False))
        hits = 0
        for query in queries:
            a = cached.execute(query)
            b = fresh.execute(query)
            if a.cache_outcome in ("exact", "subsumed"):
                hits += 1
            assert sorted(map(repr, a.rows)) == sorted(map(repr,
                                                           b.rows)), \
                f"cache diverged ({a.cache_outcome}) on: {query}"
        assert hits > 5  # the property only matters if hits happened
