"""Tests for the semantic query-result cache."""

import pytest

from repro.bio import parse_newick
from repro.core.labeling import IntervalLabeling
from repro.core.query.ast import (
    AggregateSpec,
    Comparison,
    OrderBy,
    Query,
    SubtreeFilter,
)
from repro.core.query.cache import SemanticCache
from repro.errors import QueryError


@pytest.fixture
def cache():
    tree = parse_newick("((a:1,b:1)ab:1,((c:1,d:1)cd:1,e:1)cde:1)root;")
    return SemanticCache(IntervalLabeling(tree), capacity=8)


def _rows():
    # Full-width binding rows over the fixture tree.
    return [
        {"ligand_id": "L1", "protein_id": "a", "p_affinity": 7.5,
         "potent": True, "leaf_pre": 0, "activity_type": "Ki",
         "value_nm": 31.6},
        {"ligand_id": "L2", "protein_id": "c", "p_affinity": 6.0,
         "potent": True, "leaf_pre": 2, "activity_type": "Ki",
         "value_nm": 1000.0},
        {"ligand_id": "L3", "protein_id": "d", "p_affinity": 8.5,
         "potent": True, "leaf_pre": 3, "activity_type": "Kd",
         "value_nm": 3.2},
    ]


class TestExactHits:
    def test_exact_hit_returns_copy(self, cache):
        query = Query(predicates=(Comparison("p_affinity", ">=", 6.0),))
        cache.store(query, _rows(), 0)
        hit = cache.lookup(query, 0)
        assert hit is not None
        assert hit.kind == "exact"
        hit.rows.clear()
        assert cache.lookup(query, 0).rows  # stored copy untouched

    def test_miss_on_empty_cache(self, cache):
        assert cache.lookup(Query(), 0) is None
        assert cache.misses == 1

    def test_aggregate_queries_exact_only(self, cache):
        aggregate = Query(aggregates=(AggregateSpec("count", "*"),))
        cache.store(aggregate, [{"count_all": 3}], 0)
        assert cache.lookup(aggregate, 0).kind == "exact"


class TestSubsumption:
    def test_tighter_predicate_served_from_broader_result(self, cache):
        broad = Query(predicates=(Comparison("p_affinity", ">=", 6.0),))
        cache.store(broad, _rows(), 0)
        narrow = Query(predicates=(Comparison("p_affinity", ">=", 8.0),))
        hit = cache.lookup(narrow, 0)
        assert hit is not None
        assert hit.kind == "subsumed"
        assert [row["ligand_id"] for row in hit.rows] == ["L3"]

    def test_extra_predicate_is_applied(self, cache):
        cache.store(Query(), _rows(), 0)
        narrowed = Query(predicates=(
            Comparison("activity_type", "=", "Kd"),
        ))
        hit = cache.lookup(narrowed, 0)
        assert hit.kind == "subsumed"
        assert len(hit.rows) == 1

    def test_child_subtree_served_from_parent_subtree(self, cache):
        parent = Query(subtree=SubtreeFilter("cde"))
        cache.store(parent, _rows()[1:], 0)  # rows under cde
        child = Query(subtree=SubtreeFilter("cd"))
        hit = cache.lookup(child, 0)
        assert hit is not None
        assert {row["protein_id"] for row in hit.rows} == {"c", "d"}

    def test_parent_subtree_not_served_from_child(self, cache):
        cache.store(Query(subtree=SubtreeFilter("cd")), _rows()[1:], 0)
        assert cache.lookup(Query(subtree=SubtreeFilter("cde")), 0) is None

    def test_unrelated_subtrees_do_not_subsume(self, cache):
        cache.store(Query(subtree=SubtreeFilter("ab")), _rows()[:1], 0)
        assert cache.lookup(Query(subtree=SubtreeFilter("cd")), 0) is None

    def test_looser_query_not_served_from_tighter(self, cache):
        cache.store(
            Query(predicates=(Comparison("p_affinity", ">=", 8.0),)),
            [_rows()[2]], 0,
        )
        loose = Query(predicates=(Comparison("p_affinity", ">=", 6.0),))
        assert cache.lookup(loose, 0) is None

    def test_projection_applied_on_hit(self, cache):
        cache.store(Query(), _rows(), 0)
        projected = Query(select=("ligand_id",))
        hit = cache.lookup(projected, 0)
        assert hit.rows[0] == {"ligand_id": "L1"}

    def test_order_and_limit_applied_on_hit(self, cache):
        cache.store(Query(), _rows(), 0)
        query = Query(
            order_by=OrderBy("p_affinity", descending=True), limit=2,
        )
        hit = cache.lookup(query, 0)
        assert [row["ligand_id"] for row in hit.rows] == ["L3", "L1"]

    def test_limited_results_never_subsume(self, cache):
        cache.store(Query(limit=2), _rows()[:2], 0)
        narrow = Query(
            predicates=(Comparison("p_affinity", ">=", 6.0),), limit=2,
        )
        # Only the exact signature may reuse a truncated result.
        assert cache.lookup(narrow, 0) is None

    def test_projected_results_never_subsume(self, cache):
        cache.store(Query(select=("ligand_id",)),
                    [{"ligand_id": "L1"}], 0)
        assert cache.lookup(
            Query(predicates=(Comparison("ligand_id", "=", "L1"),)), 0,
        ) is None


class TestLifecycle:
    def test_lru_eviction(self, cache):
        for i in range(10):
            cache.store(
                Query(predicates=(Comparison("hbd", "=", i),)), [], 0,
            )
        assert len(cache) == 8

    def test_invalidate_clears_everything(self, cache):
        # A lookup carrying a newer data version empties the cache.
        cache.store(Query(), _rows(), 0)
        cache.store(Query(limit=1), _rows()[:1], 0)
        assert cache.lookup(Query(), 1) is None
        assert len(cache) == 0
        assert cache.invalidations == 1
        assert cache.lookup(Query(limit=1), 1) is None
        assert cache.invalidations == 1  # one version move, counted once

    def test_a_newer_store_empties_the_cache(self, cache):
        cache.store(Query(), _rows(), 0)
        cache.store(Query(limit=1), _rows()[:1], 1)
        assert cache.lookup(Query(), 1) is None
        assert cache.lookup(Query(limit=1), 1).kind == "exact"
        assert cache.invalidations == 1

    def test_a_store_carrying_an_older_version_is_dropped(self, cache):
        assert cache.lookup(Query(), 1) is None
        cache.store(Query(), _rows(), 0)  # computed before the write
        assert len(cache) == 0
        assert cache.lookup(Query(), 1) is None

    def test_adopting_a_version_on_an_empty_cache_invalidates_nothing(
            self, cache):
        assert cache.lookup(Query(), 7) is None
        assert cache.invalidations == 0

    def test_hit_rate_accounting(self, cache):
        query = Query()
        cache.store(query, _rows(), 0)
        cache.lookup(query, 0)
        cache.lookup(Query(predicates=(Comparison("potent", "=", True),)), 0)
        stats = cache.stats()
        assert stats["exact_hits"] == 1
        # The hbd query hits via subsumption of the unfiltered store.
        assert stats["subsumption_hits"] == 1
        assert stats["hit_rate"] == 1.0

    def test_capacity_validation(self, cache):
        with pytest.raises(QueryError):
            SemanticCache(cache.labeling, capacity=0)
