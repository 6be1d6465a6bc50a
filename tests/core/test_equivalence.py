"""Optimized-vs-naive engine equivalence.

The central correctness claim of the reproduction: for every query the
workload generator can produce, the optimized engine (all mechanisms on)
and the naive federated engine return the same rows in the same order
(``docs/DTQL.md``, "Row order") — they differ only in what producing
them costs. Floats compare to 9 places, since an aggregate may sum in
another order.
"""

import pytest

from repro.core import EngineConfig, NaiveEngine, QueryEngine
from repro.workloads import (
    DatasetConfig,
    QueryGenerator,
    WorkloadConfig,
    build_dataset,
)
from tests.reach.reach import PARITY_QUERIES


@pytest.fixture(scope="module")
def world():
    dataset = build_dataset(DatasetConfig(n_leaves=18, n_ligands=35,
                                          seed=21))
    drugtree = dataset.drugtree()
    optimized = QueryEngine(drugtree)
    naive = NaiveEngine(dataset.tree, dataset.registry)
    generator = QueryGenerator(dataset.family, dataset.ligands, seed=3)
    return dataset, optimized, naive, generator


def rounded(rows):
    """*rows*, in order, with every float rounded to 9 places."""
    return [{key: round(value, 9) if isinstance(value, float) else value
             for key, value in row.items()} for row in rows]


class TestGeneratedWorkloadEquivalence:
    @pytest.mark.parametrize("kind", [
        "subtree_filter", "clade_agg", "organism_filter",
        "property_range", "similarity", "join",
    ])
    def test_each_kind_agrees(self, world, kind):
        dataset, optimized, naive, generator = world
        for _ in range(4):
            query = generator.draw(kind)
            fast = optimized.execute(query)
            slow = naive.execute(query)
            assert rounded(fast.rows) == rounded(slow.rows), \
                f"{kind} query diverged: {query}"

    def test_topk_agrees_ties_included(self, world):
        dataset, optimized, naive, generator = world
        for _ in range(4):
            query = generator.draw("topk")
            fast = optimized.execute(query)
            slow = naive.execute(query)
            assert rounded(fast.rows) == rounded(slow.rows), query

    def test_mixed_workload_agrees(self, world):
        dataset, optimized, naive, generator = world
        workload = generator.workload(WorkloadConfig(n_queries=20,
                                                     seed=11))
        for query in workload:
            fast = optimized.execute(query)
            slow = naive.execute(query)
            assert rounded(fast.rows) == rounded(slow.rows), \
                f"diverged on: {query}"

    def test_having_queries_agree(self, world):
        dataset, optimized, naive, generator = world
        text = (
            "SELECT organism, count(*), max(p_affinity) "
            "FROM bindings, proteins GROUP BY organism "
            "HAVING count_all >= 5"
        )
        fast = optimized.execute(text)
        slow = naive.execute(text)
        assert rounded(fast.rows) == rounded(slow.rows)

    def test_navigation_session_agrees_and_caches(self, world):
        dataset, optimized, naive, generator = world
        session = generator.navigation_session(steps=8)
        outcomes = []
        for query in session:
            fast = optimized.execute(query)
            slow = naive.execute(query)
            assert rounded(fast.rows) == rounded(slow.rows)
            outcomes.append(fast.cache_outcome)
        # Drill-down sessions must produce at least one cache hit.
        assert "exact" in outcomes


class TestCostAsymmetry:
    def test_naive_pays_remote_latency_every_query(self, world):
        dataset, optimized, naive, generator = world
        query = generator.draw("subtree_filter")
        slow = naive.execute(query)
        fast = optimized.execute(query)
        assert slow.roundtrips > 0
        assert slow.virtual_latency_s > 0
        # The optimized engine runs entirely on the integrated overlay.
        assert fast.counters.get("rows_scanned", 0) >= 0
        before = dataset.registry.combined_stats()["roundtrips"]
        optimized.execute(query)
        after = dataset.registry.combined_stats()["roundtrips"]
        assert after == before  # zero remote traffic

    def test_naive_traversal_visits_nodes(self, world):
        dataset, _, naive, generator = world
        query = generator.draw("clade_agg")
        result = naive.execute(query)
        assert result.nodes_visited > 0


class TestCiParityQueries:
    """The query shapes CI compares through ``repro query`` and
    ``repro query --naive`` agree row for row here too, in order; only
    the join whose build side holds no key answers nothing."""

    EMPTY = "keyed join, no key"

    @pytest.mark.parametrize("name", sorted(PARITY_QUERIES))
    def test_rows_agree_in_order(self, world, name):
        dataset, optimized, naive, generator = world
        fast = optimized.execute(PARITY_QUERIES[name])
        slow = naive.execute(PARITY_QUERIES[name])
        assert fast.rows == slow.rows
        assert bool(fast.rows) == (name != self.EMPTY)

    @pytest.mark.parametrize("name", ["keyed join", EMPTY])
    def test_joins_read_only_the_build_keys(self, world, name):
        dataset, optimized, naive, generator = world
        report = optimized.analyze(PARITY_QUERIES[name])
        assert "JoinKeyScan(protein_id from build) on bindings" in \
            report.plan_text
        # One protein (or none) holds the organism: its bindings only.
        bindings = optimized.drugtree.tables["bindings"]
        assert report.counters["rows_scanned"] < len(bindings) / 4
        if name == self.EMPTY:
            assert report.counters["rows_scanned"] == 0
            assert report.counters["index_probes"] == 1  # proteins only
