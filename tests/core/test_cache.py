"""Tests for the semantic query-result cache."""

from dataclasses import replace
from itertools import product

import pytest

from repro.bio import parse_newick
from repro.core import EngineConfig, QueryEngine
from repro.core.labeling import IntervalLabeling
from repro.core.query import cache as cache_module
from repro.core.query.ast import (
    AggregateSpec,
    Comparison,
    OrderBy,
    Query,
    SubtreeFilter,
)
from repro.core.query.cache import SemanticCache
from repro.core.query.predicates import compile_residual
from repro.obs import MetricsRegistry, get_metrics, set_metrics
from repro.workloads import DatasetConfig, build_dataset


@pytest.fixture
def cache(monkeypatch):
    monkeypatch.setattr(cache_module, "CACHE_CAPACITY", 8)
    tree = parse_newick("((a:1,b:1)ab:1,((c:1,d:1)cd:1,e:1)cde:1)root;")
    return SemanticCache(IntervalLabeling(tree))


@pytest.fixture
def metrics():
    previous = get_metrics()
    registry = MetricsRegistry()
    set_metrics(registry)
    yield registry
    set_metrics(previous)


def _count(registry, event):
    return registry.counter_values("semantic_cache.").get(
        f"semantic_cache.{event}", 0)


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


def _store(cache, query, rows, version):
    """Store dict *rows* in the engine's result form."""
    columns = tuple(rows[0]) if rows else ()
    cache.store(query, columns, [tuple(row.values()) for row in rows],
                version)


def _rows_of(hit):
    return [dict(zip(hit.columns, values)) for values in hit.values]


class TestExactHits:
    def test_exact_hit_returns_the_stored_answer(self, cache):
        query = Query(predicates=(Comparison("p_affinity", ">=", 6.0),))
        _store(cache, query, _rows(), 0)
        hit = cache.lookup(query, 0)
        assert hit is not None
        assert hit.kind == "exact"
        assert _rows_of(hit) == _rows()

    def test_miss_on_empty_cache(self, cache, metrics):
        assert cache.lookup(Query(), 0) is None
        assert _count(metrics, "misses") == 1

    def test_aggregate_queries_exact_only(self, cache):
        aggregate = Query(aggregates=(AggregateSpec("count", "*"),))
        _store(cache, aggregate, [{"count_all": 3}], 0)
        assert cache.lookup(aggregate, 0).kind == "exact"


class TestSubsumption:
    def test_tighter_predicate_served_from_broader_result(self, cache):
        broad = Query(predicates=(Comparison("p_affinity", ">=", 6.0),))
        _store(cache, broad, _rows(), 0)
        narrow = Query(predicates=(Comparison("p_affinity", ">=", 8.0),))
        hit = cache.lookup(narrow, 0)
        assert hit is not None
        assert hit.kind == "subsumed"
        assert [row["ligand_id"] for row in _rows_of(hit)] == ["L3"]

    def test_extra_predicate_is_applied(self, cache):
        _store(cache, Query(), _rows(), 0)
        narrowed = Query(predicates=(
            Comparison("activity_type", "=", "Kd"),
        ))
        hit = cache.lookup(narrowed, 0)
        assert hit.kind == "subsumed"
        assert len(_rows_of(hit)) == 1

    def test_child_subtree_served_from_parent_subtree(self, cache):
        parent = Query(subtree=SubtreeFilter("cde"))
        _store(cache, parent, _rows()[1:], 0)  # rows under cde
        child = Query(subtree=SubtreeFilter("cd"))
        hit = cache.lookup(child, 0)
        assert hit is not None
        assert {row["protein_id"] for row in _rows_of(hit)} == {"c", "d"}

    def test_parent_subtree_not_served_from_child(self, cache):
        _store(cache, Query(subtree=SubtreeFilter("cd")), _rows()[1:], 0)
        assert cache.lookup(Query(subtree=SubtreeFilter("cde")), 0) is None

    def test_unrelated_subtrees_do_not_subsume(self, cache):
        _store(cache, Query(subtree=SubtreeFilter("ab")), _rows()[:1], 0)
        assert cache.lookup(Query(subtree=SubtreeFilter("cd")), 0) is None

    def test_looser_query_not_served_from_tighter(self, cache):
        _store(
            cache, Query(predicates=(Comparison("p_affinity", ">=", 8.0),)),
            [_rows()[2]], 0,
        )
        loose = Query(predicates=(Comparison("p_affinity", ">=", 6.0),))
        assert cache.lookup(loose, 0) is None

    def test_projection_applied_on_hit(self, cache):
        _store(cache, Query(), _rows(), 0)
        projected = Query(select=("ligand_id",))
        hit = cache.lookup(projected, 0)
        assert _rows_of(hit)[0] == {"ligand_id": "L1"}

    def test_order_and_limit_applied_on_hit(self, cache):
        _store(cache, Query(), _rows(), 0)
        query = Query(
            order_by=OrderBy("p_affinity", descending=True), limit=2,
        )
        hit = cache.lookup(query, 0)
        assert [row["ligand_id"] for row in _rows_of(hit)] == ["L3", "L1"]

    def test_limited_results_never_subsume(self, cache):
        _store(cache, Query(limit=2), _rows()[:2], 0)
        narrow = Query(
            predicates=(Comparison("p_affinity", ">=", 6.0),), limit=2,
        )
        # Only the exact signature may reuse a truncated result.
        assert cache.lookup(narrow, 0) is None

    def test_projected_results_never_subsume(self, cache):
        _store(cache, Query(select=("ligand_id",)),
               [{"ligand_id": "L1"}], 0)
        assert cache.lookup(
            Query(predicates=(Comparison("ligand_id", "=", "L1"),)), 0,
        ) is None


class TestLifecycle:
    def test_lru_eviction(self, cache):
        for i in range(10):
            _store(
                cache, Query(predicates=(Comparison("hbd", "=", i),)), [], 0,
            )
        assert len(cache) == 8

    def test_invalidate_clears_everything(self, cache, metrics):
        # A lookup carrying a newer data version empties the cache.
        _store(cache, Query(), _rows(), 0)
        _store(cache, Query(limit=1), _rows()[:1], 0)
        assert cache.lookup(Query(), 1) is None
        assert len(cache) == 0
        assert _count(metrics, "invalidations") == 1
        assert cache.lookup(Query(limit=1), 1) is None
        # One version move, counted once.
        assert _count(metrics, "invalidations") == 1

    def test_a_newer_store_empties_the_cache(self, cache, metrics):
        _store(cache, Query(), _rows(), 0)
        _store(cache, Query(limit=1), _rows()[:1], 1)
        assert cache.lookup(Query(), 1) is None
        assert cache.lookup(Query(limit=1), 1).kind == "exact"
        assert _count(metrics, "invalidations") == 1

    def test_a_store_carrying_an_older_version_is_dropped(self, cache):
        assert cache.lookup(Query(), 1) is None
        _store(cache, Query(), _rows(), 0)  # computed before the write
        assert len(cache) == 0
        assert cache.lookup(Query(), 1) is None

    def test_adopting_a_version_on_an_empty_cache_invalidates_nothing(
            self, cache, metrics):
        assert cache.lookup(Query(), 7) is None
        assert _count(metrics, "invalidations") == 0

    def test_each_outcome_is_counted_once(self, cache, metrics):
        query = Query()
        _store(cache, query, _rows(), 0)
        cache.lookup(query, 0)
        cache.lookup(Query(predicates=(Comparison("potent", "=", True),)), 0)
        assert _count(metrics, "exact_hits") == 1
        # The potent query hits via subsumption of the unfiltered store.
        assert _count(metrics, "subsumed_hits") == 1
        assert _count(metrics, "misses") == 0


BROAD = Query(predicates=(Comparison("p_affinity", ">=", 6.0),))
NARROW = Query(predicates=(Comparison("p_affinity", ">=", 8.0),))


def _exact_only(i):
    """An aggregate: reusable for its own signature only."""
    return Query(aggregates=(AggregateSpec("count", "*"),),
                 predicates=(Comparison("hbd", "=", i),))


class TestRowsAreNeverShared:
    def test_a_store_keeps_its_own_copy(self, cache):
        values = [tuple(row.values()) for row in _rows()]
        cache.store(Query(limit=3), tuple(_rows()[0]), values, 0)
        values.append(values[0])
        assert _rows_of(cache.lookup(Query(limit=3), 0)) == _rows()

    def test_an_exact_hit_hands_out_the_frozen_entry(self, cache):
        # Tuples all the way down: nothing a caller could mutate, so
        # every hit gets the one stored object and no copy.
        _store(cache, Query(limit=3), _rows(), 0)
        hit = cache.lookup(Query(limit=3), 0)
        assert type(hit.values) is tuple
        assert all(type(values) is tuple for values in hit.values)
        assert cache.lookup(Query(limit=3), 0).values is hit.values

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

    def store(self, query, columns, values, version):
        super().store(query, columns, values, version)
        with self._lock:
            if query.signature() in self._entries:
                self._subsumers[query.signature()] = query


def assert_a_miss_tests_only_subsumers(cache_class, labeling,
                                       monkeypatch):
    monkeypatch.setattr(cache_module, "CACHE_CAPACITY", 2000)
    cache = cache_class(labeling)
    _store(cache, BROAD, _rows(), 0)
    for i in range(1000):
        _store(cache, _exact_only(i), [{"count_all": i}], 0)
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
            self, cache, monkeypatch):
        monkeypatch.setattr(cache_module, "CACHE_CAPACITY", 2000)
        big = SemanticCache(cache.labeling)
        _store(big, BROAD, _rows(), 0)
        for i in range(1000):
            _store(big, _exact_only(i), [{"count_all": i}], 0)
        assert len(big) == 1001
        hit = big.lookup(NARROW, 0)
        assert hit.kind == "subsumed"
        assert [row["ligand_id"] for row in _rows_of(hit)] == ["L3"]
        assert _rows_of(big.lookup(_exact_only(999), 0)) \
            == [{"count_all": 999}]

    def test_a_miss_tests_only_the_subsumers(self, cache, monkeypatch):
        assert_a_miss_tests_only_subsumers(SemanticCache, cache.labeling,
                                           monkeypatch)

    def test_planted_scan_of_every_entry_fails_the_count(self, cache,
                                                         monkeypatch):
        with pytest.raises(AssertionError):
            assert_a_miss_tests_only_subsumers(
                ScanEveryEntry, cache.labeling, monkeypatch)

    def test_lru_eviction_empties_both_maps(self, cache):
        _store(cache, BROAD, _rows(), 0)
        for i in range(8):
            _store(cache, _exact_only(i), [{"count_all": i}], 0)
        assert len(cache) == 8
        assert not cache._subsumers
        assert cache.lookup(NARROW, 0) is None

    def test_a_hit_keeps_a_subsumer_from_eviction(self, cache):
        _store(cache, BROAD, _rows(), 0)
        for i in range(7):
            _store(cache, _exact_only(i), [{"count_all": i}], 0)
        assert cache.lookup(NARROW, 0).kind == "subsumed"  # touches BROAD
        _store(cache, _exact_only(7), [{"count_all": 7}], 0)
        assert cache.lookup(_exact_only(0), 0) is None  # the oldest went
        assert list(cache._subsumers) == [BROAD.signature()]

    def test_a_restamp_empties_both_maps(self, cache):
        _store(cache, BROAD, _rows(), 0)
        _store(cache, _exact_only(0), [{"count_all": 0}], 0)
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
    """Subsumption one row dict at a time: the derivation the one over
    value tuples replaced, sorting above the projection as the engine
    does (a dropped sort column sorts nothing)."""
    residual = compile_residual(query.predicates)
    out = [row for row in rows if residual(row)]
    if query.subtree is not None:
        low, high = labeling.leaf_range(query.subtree.node_name)
        out = [row for row in out if low <= row["leaf_pre"] < high]
    out = [{column: row[column] for column in query.select or row}
           for row in out]
    if query.order_by is not None:  # above the projection, as executed
        column = query.order_by.column
        out.sort(key=lambda row: (row.get(column) is not None,
                                  row.get(column)),
                 reverse=query.order_by.descending)
    return out[:query.limit]


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

    def test_every_narrowing(self, world):
        drugtree, engine, rows = world
        cache = SemanticCache(drugtree.labeling)
        _store(cache, BROAD_ENTRY, rows, 0)
        for query in narrowings(drugtree):
            hit = cache.lookup(query, 0)
            assert hit.kind == "subsumed", query
            want = derive_rowwise(drugtree.labeling, rows, query)
            assert _rows_of(hit) == want, query
            assert [list(row) for row in _rows_of(hit)] \
                == [list(row) for row in want]
            assert _rows_of(hit) == engine.execute(query).rows, query


BROAD_ENTRY = Query(predicates=(Comparison("p_affinity", ">=", 5.0),))
