"""Tests for the optimized query engine (executor level)."""

import pytest

from repro.core import EngineConfig, QueryEngine
from repro.core.query.ast import (
    AggregateSpec,
    Comparison,
    OrderBy,
    Query,
    SimilarityFilter,
    SubtreeFilter,
)
from repro.errors import QueryError
from repro.workloads import DatasetConfig, build_dataset


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(DatasetConfig(n_leaves=24, n_ligands=50, seed=5))


@pytest.fixture(scope="module")
def drugtree(dataset):
    return dataset.drugtree()


@pytest.fixture
def engine(drugtree):
    return QueryEngine(drugtree)


class TestBasicExecution:
    def test_full_scan(self, engine, drugtree):
        result = engine.execute("SELECT * FROM bindings")
        assert len(result) == drugtree.binding_count

    def test_projection(self, engine):
        result = engine.execute("SELECT ligand_id, p_affinity LIMIT 3")
        assert all(set(row) == {"ligand_id", "p_affinity"}
                   for row in result.rows)

    def test_filter(self, engine):
        result = engine.execute(
            "SELECT * FROM bindings WHERE p_affinity >= 7.0"
        )
        assert all(row["p_affinity"] >= 7.0 for row in result.rows)
        assert result.rows  # dataset guarantees strong binders exist

    def test_subtree_restriction(self, engine, drugtree):
        clade = drugtree.tree.root.children[0].name
        low, high = drugtree.labeling.leaf_range(clade)
        result = engine.execute(
            f"SELECT * FROM bindings IN SUBTREE '{clade}'"
        )
        assert result.rows
        assert all(low <= row["leaf_pre"] < high for row in result.rows)

    def test_order_and_limit(self, engine):
        result = engine.execute(
            "SELECT ligand_id, p_affinity "
            "ORDER BY p_affinity DESC LIMIT 5"
        )
        values = [row["p_affinity"] for row in result.rows]
        assert values == sorted(values, reverse=True)
        assert len(values) == 5

    def test_scalar_aggregate(self, engine, drugtree):
        result = engine.execute("SELECT count(*) FROM bindings")
        assert result.scalar() == drugtree.binding_count

    def test_group_by(self, engine):
        result = engine.execute(
            "SELECT organism, count(*) FROM bindings, proteins "
            "GROUP BY organism"
        )
        total = sum(row["count_all"] for row in result.rows)
        assert total == len(engine.execute("SELECT * FROM bindings,"
                                           " proteins").rows)

    def test_having_filters_groups(self, engine):
        unfiltered = engine.execute(
            "SELECT organism, count(*) FROM bindings, proteins "
            "GROUP BY organism"
        )
        filtered = engine.execute(
            "SELECT organism, count(*) FROM bindings, proteins "
            "GROUP BY organism HAVING count_all >= 30"
        )
        expected = [row for row in unfiltered.rows
                    if row["count_all"] >= 30]
        assert filtered.rows == expected
        assert len(filtered.rows) < len(unfiltered.rows)

    def test_order_by_aggregate_after_having(self, engine):
        result = engine.execute(
            "SELECT organism, count(*) FROM bindings, proteins "
            "GROUP BY organism HAVING count_all >= 10 "
            "ORDER BY count_all DESC LIMIT 3"
        )
        counts = [row["count_all"] for row in result.rows]
        assert counts == sorted(counts, reverse=True)
        assert len(counts) <= 3
        assert all(count >= 10 for count in counts)

    def test_having_on_scalar_aggregate(self, engine, drugtree):
        kept = engine.execute(
            "SELECT count(*) FROM bindings HAVING count_all >= 1"
        )
        assert kept.scalar() == drugtree.binding_count
        dropped = engine.execute(
            "SELECT count(*) FROM bindings HAVING count_all < 0"
        )
        assert dropped.rows == []

    def test_contradiction_returns_empty_without_scanning(self, engine):
        result = engine.execute(
            "SELECT * WHERE p_affinity >= 9 AND p_affinity <= 2"
        )
        assert result.rows == []
        assert result.counters["rows_scanned"] == 0

    def test_scalar_on_multirow_raises(self, engine):
        result = engine.execute("SELECT * FROM bindings LIMIT 5")
        with pytest.raises(QueryError):
            result.scalar()


class TestJoins:
    def test_two_table_join(self, engine):
        result = engine.execute(
            "SELECT protein_id, organism, p_affinity "
            "WHERE p_affinity >= 7.0"
        )
        assert result.rows
        assert all(row["organism"] for row in result.rows)

    def test_three_table_join(self, engine):
        result = engine.execute(
            "SELECT protein_id, ligand_id, logp, organism "
            "WHERE logp <= 3.0"
        )
        assert all(row["logp"] <= 3.0 for row in result.rows)

    def test_nested_loop_matches_hash(self, drugtree):
        text = ("SELECT protein_id, ligand_id, p_affinity, organism "
                "WHERE p_affinity >= 7.5")
        hash_engine = QueryEngine(drugtree, EngineConfig(
            use_semantic_cache=False, join_method="hash",
        ))
        loop_engine = QueryEngine(drugtree, EngineConfig(
            use_semantic_cache=False, join_method="nested_loop",
        ))
        hash_rows = sorted(map(repr, hash_engine.execute(text).rows))
        loop_rows = sorted(map(repr, loop_engine.execute(text).rows))
        assert hash_rows == loop_rows


class TestCladeFastPath:
    def test_fast_path_matches_slow_path(self, drugtree):
        clade = drugtree.tree.root.children[0].name
        text = (
            "SELECT count(*), mean(p_affinity), max(p_affinity) "
            f"IN SUBTREE '{clade}'"
        )
        fast = QueryEngine(drugtree, EngineConfig(
            use_semantic_cache=False,
        )).execute(text)
        slow = QueryEngine(drugtree, EngineConfig(
            use_semantic_cache=False,
            use_materialized_aggregates=False,
        )).execute(text)
        assert fast.rows[0]["count_all"] == slow.rows[0]["count_all"]
        assert fast.rows[0]["mean_p_affinity"] == pytest.approx(
            slow.rows[0]["mean_p_affinity"]
        )
        assert fast.rows[0]["max_p_affinity"] == pytest.approx(
            slow.rows[0]["max_p_affinity"]
        )

    def test_fast_path_touches_no_rows(self, drugtree):
        clade = drugtree.tree.root.children[0].name
        engine = QueryEngine(drugtree,
                             EngineConfig(use_semantic_cache=False))
        result = engine.execute(
            f"SELECT count(*), mean(p_affinity) IN SUBTREE '{clade}'"
        )
        assert result.counters["rows_scanned"] == 0


class TestSemanticCacheIntegration:
    def test_repeat_query_hits_cache(self, drugtree):
        engine = QueryEngine(drugtree)
        text = "SELECT * FROM bindings WHERE p_affinity >= 7.0"
        first = engine.execute(text)
        second = engine.execute(text)
        assert first.cache_outcome == "miss"
        assert second.cache_outcome == "exact"
        assert second.rows == first.rows

    def test_narrowing_hits_subsumption(self, drugtree):
        engine = QueryEngine(drugtree)
        broad = engine.execute(
            "SELECT * FROM bindings WHERE p_affinity >= 6.0"
        )
        narrow = engine.execute(
            "SELECT * FROM bindings WHERE p_affinity >= 8.0"
        )
        assert narrow.cache_outcome == "subsumed"
        expected = [row for row in broad.rows
                    if row["p_affinity"] >= 8.0]
        assert sorted(map(repr, narrow.rows)) == sorted(map(repr,
                                                            expected))

    def test_mutation_invalidates_cache(self, dataset):
        drugtree, _ = dataset.integrate()
        engine = QueryEngine(drugtree)
        text = "SELECT count(*) FROM bindings"
        before = engine.execute(text).scalar()
        from repro.chem import ActivityType, BindingRecord
        drugtree.add_binding(BindingRecord(
            "LIG00001", drugtree.tree.leaf_names()[0],
            ActivityType.KI, 5.0,
        ))
        after = engine.execute(text)
        assert after.cache_outcome == "miss"
        assert after.scalar() == before + 1

    def test_cache_disabled(self, drugtree):
        engine = QueryEngine(drugtree,
                             EngineConfig(use_semantic_cache=False))
        text = "SELECT * FROM bindings LIMIT 2"
        engine.execute(text)
        assert engine.execute(text).cache_outcome == "off"

    @pytest.mark.parametrize("caching", [False, True])
    def test_inserts_cost_no_cache_anything(self, dataset, caching):
        # The cache learns of writes from the data version its next
        # lookup carries: inserts touch no lock and bump no counter,
        # and the lookup after 100 of them empties the cache once.
        from repro import obs
        from repro.chem import ActivityType, BindingRecord
        drugtree, _ = dataset.integrate()
        engine = QueryEngine(
            drugtree, EngineConfig(use_semantic_cache=caching))
        text = "SELECT count(*) FROM bindings"
        before = engine.execute(text).scalar()
        previous = obs.get_metrics()
        obs.set_metrics(obs.MetricsRegistry())
        try:
            leaf = drugtree.tree.leaf_names()[0]
            for _ in range(100):
                drugtree.add_binding(BindingRecord(
                    "LIG00001", leaf, ActivityType.KI, 5.0))
            counted = obs.get_metrics().counter_values().get(
                "semantic_cache.invalidations", 0)
            assert counted == engine.cache.invalidations == 0
            assert engine.execute(text).scalar() == before + 100
            counted = obs.get_metrics().counter_values().get(
                "semantic_cache.invalidations", 0)
        finally:
            obs.set_metrics(previous)
        assert counted == engine.cache.invalidations == int(caching)


class TestSimilarity:
    def test_prefilter_matches_exhaustive(self, dataset, drugtree):
        probe = dataset.ligands[3].smiles
        query = Query(
            select=("ligand_id",),
            similar=SimilarityFilter(probe, 0.6),
        )
        with_prefilter = QueryEngine(drugtree, EngineConfig(
            use_semantic_cache=False, use_fingerprint_prefilter=True,
        )).execute(query)
        exhaustive = QueryEngine(drugtree, EngineConfig(
            use_semantic_cache=False, use_fingerprint_prefilter=False,
        )).execute(query)
        assert sorted(map(repr, with_prefilter.rows)) == \
            sorted(map(repr, exhaustive.rows))
        assert with_prefilter.similarity_candidates <= \
            exhaustive.similarity_candidates

    def test_probe_finds_itself(self, dataset, drugtree):
        probe = dataset.ligands[0]
        engine = QueryEngine(drugtree,
                             EngineConfig(use_semantic_cache=False))
        result = engine.execute(Query(
            select=("ligand_id",),
            similar=SimilarityFilter(probe.smiles, 0.99),
        ))
        assert {row["ligand_id"] for row in result.rows} >= {
            probe.ligand_id,
        }


class TestAblations:
    """Every config combination must return identical rows."""

    CONFIGS = [
        EngineConfig(use_semantic_cache=False),
        EngineConfig(use_semantic_cache=False, use_indexes=False),
        EngineConfig(use_semantic_cache=False,
                     use_interval_labeling=False),
        EngineConfig(use_semantic_cache=False,
                     use_materialized_aggregates=False),
        EngineConfig(use_semantic_cache=False, join_strategy="fixed"),
        EngineConfig(use_semantic_cache=False, join_strategy="greedy"),
    ]

    QUERIES = [
        "SELECT * FROM bindings WHERE p_affinity >= 7.0",
        "SELECT organism, count(*) GROUP BY organism",
        "SELECT protein_id, ligand_id, logp WHERE logp <= 2.5",
        "SELECT ligand_id, p_affinity ORDER BY p_affinity DESC LIMIT 7",
    ]

    @pytest.mark.parametrize("text", QUERIES)
    def test_configs_agree(self, drugtree, text):
        reference = None
        for config in self.CONFIGS:
            rows = QueryEngine(drugtree, config).execute(text).rows
            canonical = sorted(map(repr, rows))
            if reference is None:
                reference = canonical
            else:
                assert canonical == reference, f"config {config} differs"

    def test_subtree_query_configs_agree(self, drugtree):
        clade = drugtree.tree.root.children[0].name
        text = f"SELECT * FROM bindings IN SUBTREE '{clade}'"
        self.test_configs_agree(drugtree, text)


class TestRemoteDetailColumns:
    """Detail columns resolved through the federation scheduler."""

    @pytest.fixture
    def federated_engine(self, dataset, drugtree):
        from repro.sources import FetchScheduler

        scheduler = FetchScheduler(dataset.registry)
        engine = QueryEngine(drugtree, federation=scheduler)
        return engine, scheduler

    def test_remote_column_needs_federation(self, drugtree):
        engine = QueryEngine(drugtree)
        with pytest.raises(QueryError, match="federation"):
            engine.execute("SELECT protein_id, method FROM proteins")

    def test_remote_columns_merged_into_rows(self, federated_engine):
        engine, scheduler = federated_engine
        result = engine.execute(
            "SELECT protein_id, organism, method, go_terms "
            "FROM proteins"
        )
        assert result.rows
        assert all(row["method"] for row in result.rows)
        assert all(isinstance(row["go_terms"], (list, tuple))
                   for row in result.rows)
        # One overlapped batch resolved both remote kinds.
        assert scheduler.stats.batches == 1

    def test_analyze_reports_scheduler_work(self, federated_engine):
        engine, _ = federated_engine
        report = engine.analyze(
            "SELECT protein_id, method FROM proteins LIMIT 5"
        )
        assert report.federation
        assert "scheduler.batches" in report.federation
        assert "fetch scheduler" in report.render()

    def test_local_queries_skip_the_scheduler(self, federated_engine):
        engine, scheduler = federated_engine
        engine.execute("SELECT protein_id, organism FROM proteins")
        assert scheduler.stats.batches == 0
