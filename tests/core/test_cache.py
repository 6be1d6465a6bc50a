"""Tests for the semantic query-result cache."""

from dataclasses import replace
from itertools import product

import pytest

from repro.bio import parse_newick
from repro.core import EngineConfig, QueryEngine
from repro.core.labeling import IntervalLabeling
from repro.core.query.ast import (
    AggregateSpec,
    Comparison,
    OrderBy,
    Query,
    SubtreeFilter,
)
from repro.core.query.cache import SemanticCache
from repro.core.query.predicates import compile_residual
from repro.errors import QueryError
from repro.workloads import DatasetConfig, build_dataset


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


BROAD = Query(predicates=(Comparison("p_affinity", ">=", 6.0),))
NARROW = Query(predicates=(Comparison("p_affinity", ">=", 8.0),))


def _exact_only(i):
    """An aggregate: reusable for its own signature only."""
    return Query(aggregates=(AggregateSpec("count", "*"),),
                 predicates=(Comparison("hbd", "=", i),))


class TestRowsAreNeverShared:
    def test_a_store_keeps_its_own_copy(self, cache):
        rows = _rows()
        cache.store(Query(limit=3), rows, 0)
        rows[0]["p_affinity"] = -1.0
        assert cache.lookup(Query(limit=3), 0).rows == _rows()

    def test_an_exact_hit_hands_out_copies(self, cache):
        cache.store(Query(limit=3), _rows(), 0)
        cache.lookup(Query(limit=3), 0).rows[0]["p_affinity"] = -1.0
        assert cache.lookup(Query(limit=3), 0).rows == _rows()

    def test_a_hit_keeps_every_row_s_column_order(self, cache):
        # Packed as one column tuple when the rows share an order,
        # kept as dicts when they do not: either way, as stored.
        for rows in (_rows(),
                     [{"ligand_id": "L1", "p_affinity": 7.5},
                      {"p_affinity": 6.0, "ligand_id": "L2"}]):
            cache.store(Query(limit=9), rows, 0)
            hit = cache.lookup(Query(limit=9), 0)
            assert hit.rows == rows
            assert [list(row) for row in hit.rows] \
                == [list(row) for row in rows]

    def test_mutating_an_engine_result_leaves_the_next_hit_intact(self):
        dataset = build_dataset(DatasetConfig(n_leaves=12, n_ligands=12,
                                              seed=17))
        engine = QueryEngine(dataset.drugtree())
        text = ("SELECT ligand_id, p_affinity FROM bindings "
                "ORDER BY p_affinity DESC LIMIT 5")
        first = engine.execute(text)
        expected = [dict(row) for row in first.rows]
        first.rows[0]["p_affinity"] = -1.0
        second = engine.execute(text)
        assert second.cache_outcome == "exact"
        assert second.rows == expected
        second.rows[0]["p_affinity"] = -1.0
        assert engine.execute(text).rows == expected


class ScanEveryEntry(SemanticCache):
    """Planted: every entry joins the subsumer map, so a miss tests
    them all (answers stay right: ``_subsumes`` still rejects them)."""

    def store(self, query, rows, version):
        super().store(query, rows, version)
        with self._lock:
            if query.signature() in self._entries:
                self._subsumers[query.signature()] = query


def assert_a_miss_tests_only_subsumers(cache_class, labeling,
                                       monkeypatch):
    cache = cache_class(labeling, capacity=2000)
    cache.store(BROAD, _rows(), 0)
    for i in range(1000):
        cache.store(_exact_only(i), [{"count_all": i}], 0)
    calls = []
    subsumes = SemanticCache._subsumes

    def counting(self, cached, query):
        calls.append(cached)
        return subsumes(self, cached, query)

    monkeypatch.setattr(SemanticCache, "_subsumes", counting)
    loose = Query(predicates=(Comparison("p_affinity", ">=", 2.0),))
    assert cache.lookup(loose, 0) is None
    assert calls == [BROAD]


class TestSubsumerMap:
    def test_a_subsumer_is_found_behind_a_thousand_exact_entries(
            self, cache):
        big = SemanticCache(cache.labeling, capacity=2000)
        big.store(BROAD, _rows(), 0)
        for i in range(1000):
            big.store(_exact_only(i), [{"count_all": i}], 0)
        assert len(big) == 1001
        hit = big.lookup(NARROW, 0)
        assert hit.kind == "subsumed"
        assert [row["ligand_id"] for row in hit.rows] == ["L3"]
        assert big.lookup(_exact_only(999), 0).rows == [{"count_all": 999}]

    def test_a_miss_tests_only_the_subsumers(self, cache, monkeypatch):
        assert_a_miss_tests_only_subsumers(SemanticCache, cache.labeling,
                                           monkeypatch)

    def test_planted_scan_of_every_entry_fails_the_count(self, cache,
                                                         monkeypatch):
        with pytest.raises(AssertionError):
            assert_a_miss_tests_only_subsumers(
                ScanEveryEntry, cache.labeling, monkeypatch)

    def test_lru_eviction_empties_both_maps(self, cache):
        cache.store(BROAD, _rows(), 0)
        for i in range(8):
            cache.store(_exact_only(i), [{"count_all": i}], 0)
        assert len(cache) == 8
        assert not cache._subsumers
        assert cache.lookup(NARROW, 0) is None

    def test_a_hit_keeps_a_subsumer_from_eviction(self, cache):
        cache.store(BROAD, _rows(), 0)
        for i in range(7):
            cache.store(_exact_only(i), [{"count_all": i}], 0)
        assert cache.lookup(NARROW, 0).kind == "subsumed"  # touches BROAD
        cache.store(_exact_only(7), [{"count_all": 7}], 0)
        assert cache.lookup(_exact_only(0), 0) is None  # the oldest went
        assert list(cache._subsumers) == [BROAD.signature()]

    def test_a_restamp_empties_both_maps(self, cache):
        cache.store(BROAD, _rows(), 0)
        cache.store(_exact_only(0), [{"count_all": 0}], 0)
        assert cache.lookup(NARROW, 1) is None
        assert len(cache) == 0
        assert not cache._subsumers


class TestSignature:
    def test_rendered_once_per_query(self):
        assert BROAD.signature() is BROAD.signature()
        assert BROAD == Query(predicates=(Comparison("p_affinity", ">=",
                                                     6.0),))
        assert replace(BROAD, limit=3).signature() \
            == BROAD.signature() + " LIMIT 3"


def derive_rowwise(labeling, rows, query):
    """Subsumption one row dict at a time: the derivation the packed
    one replaced, kept verbatim in behaviour."""
    residual = compile_residual(query.predicates)
    out = [row for row in rows if residual(row)]
    if query.subtree is not None:
        low, high = labeling.leaf_range(query.subtree.node_name)
        out = [row for row in out if low <= row["leaf_pre"] < high]
    if query.order_by is not None:
        column = query.order_by.column
        out.sort(key=lambda row: (row.get(column) is not None,
                                  row.get(column)),
                 reverse=query.order_by.descending)
    out = out[:query.limit]
    if query.select:
        return [{column: row[column] for column in query.select}
                for row in out]
    return [dict(row) for row in out]


def narrowings(drugtree):
    """Queries a ``p_affinity >= 5`` entry subsumes: tighter predicates
    × clade × SELECT × ORDER BY × LIMIT."""
    clades = (None, drugtree.tree.root.children[0].name,
              drugtree.tree.leaf_names()[3])
    for threshold, potent, clade, select, order, limit in product(
            (5.5, 7.0), (False, True), clades,
            ((), ("ligand_id", "p_affinity"), ("leaf_pre",)),
            (None, OrderBy("p_affinity", descending=True),
             OrderBy("ligand_id")),
            (None, 4)):
        predicates = (Comparison("p_affinity", ">=", threshold),)
        if potent:
            predicates += (Comparison("potent", "=", True),)
        yield Query(predicates=predicates, select=select, order_by=order,
                    limit=limit,
                    subtree=SubtreeFilter(clade) if clade else None)


class TestDerivedEqualsExecuted:
    @pytest.fixture(scope="class")
    def world(self):
        dataset = build_dataset(DatasetConfig(n_leaves=12, n_ligands=12,
                                              seed=17))
        drugtree = dataset.drugtree()
        engine = QueryEngine(drugtree,
                             EngineConfig(use_semantic_cache=False))
        rows = engine.execute(BROAD_ENTRY).rows
        assert rows and len({tuple(row) for row in rows}) == 1
        return drugtree, engine, rows

    @pytest.mark.parametrize("form", ["packed", "dicts"])
    def test_every_narrowing(self, world, form):
        drugtree, engine, rows = world
        if form == "dicts":  # rows whose columns share no one order
            rows = [dict(reversed(row.items())) if i % 2 else row
                    for i, row in enumerate(rows)]
        cache = SemanticCache(drugtree.labeling)
        cache.store(BROAD_ENTRY, rows, 0)
        columns, _ = cache._entries[BROAD_ENTRY.signature()]
        assert (columns is None) == (form == "dicts")
        for query in narrowings(drugtree):
            hit = cache.lookup(query, 0)
            assert hit.kind == "subsumed", query
            want = derive_rowwise(drugtree.labeling, rows, query)
            assert hit.rows == want, query
            assert [list(row) for row in hit.rows] \
                == [list(row) for row in want]
            executed = engine.execute(query).rows
            assert len(hit.rows) == len(executed), query
            column = query.order_by and query.order_by.column
            if column in (query.select or rows[0]):
                assert [row[column] for row in hit.rows] \
                    == [row[column] for row in executed], query
            if query.limit is None:
                assert _multiset(hit.rows) == _multiset(executed), query


def _multiset(rows):
    return sorted(repr(sorted(row.items())) for row in rows)


BROAD_ENTRY = Query(predicates=(Comparison("p_affinity", ">=", 5.0),))
