"""Tests for the semantic query-result cache."""

from dataclasses import replace
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chem.affinity import ActivityType, BindingRecord
from repro.core import EngineConfig, QueryEngine
from repro.core.query import cache as cache_module
from repro.core.query.ast import (
    AggregateSpec,
    Comparison,
    Query,
    SubtreeFilter,
)
from repro.core.query.cache import SemanticCache
from repro.obs import MetricsRegistry, get_metrics, set_metrics
from repro.workloads import DatasetConfig, build_dataset


@pytest.fixture
def cache(monkeypatch):
    monkeypatch.setattr(cache_module, "CACHE_CAPACITY", 8)
    return SemanticCache()


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
    # Full-width binding rows.
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


def _rows_of(entry):
    columns, values = entry
    return [dict(zip(columns, row)) for row in values]


BROAD = Query(predicates=(Comparison("p_affinity", ">=", 6.0),))
NARROW = Query(predicates=(Comparison("p_affinity", ">=", 8.0),))


class TestExactHits:
    def test_exact_hit_returns_the_stored_answer(self, cache):
        _store(cache, BROAD, _rows(), 0)
        assert _rows_of(cache.lookup(BROAD, 0)) == _rows()

    def test_miss_on_empty_cache(self, cache, metrics):
        assert cache.lookup(Query(), 0) is None
        assert _count(metrics, "misses") == 1

    def test_aggregate_queries_hit(self, cache):
        aggregate = Query(aggregates=(AggregateSpec("count", "*"),))
        _store(cache, aggregate, [{"count_all": 3}], 0)
        assert _rows_of(cache.lookup(aggregate, 0)) == [{"count_all": 3}]

    def test_an_empty_answer_is_a_hit(self, cache):
        _store(cache, NARROW, [], 0)
        assert cache.lookup(NARROW, 0) == ((), ())


class TestOwnSignatureOnly:
    def test_a_narrower_query_misses(self, cache):
        _store(cache, BROAD, _rows(), 0)
        assert cache.lookup(NARROW, 0) is None

    def test_a_child_clade_misses(self, cache):
        _store(cache, Query(subtree=SubtreeFilter("cde")), _rows()[1:], 0)
        assert cache.lookup(Query(subtree=SubtreeFilter("cd")), 0) is None

    def test_a_projection_misses(self, cache):
        _store(cache, Query(), _rows(), 0)
        assert cache.lookup(Query(select=("ligand_id",)), 0) is None


class TestLifecycle:
    def test_lru_eviction(self, cache):
        for i in range(10):
            _store(
                cache, Query(predicates=(Comparison("hbd", "=", i),)), [], 0,
            )
        assert len(cache) == 8

    def test_a_hit_keeps_its_entry_from_eviction(self, cache):
        _store(cache, BROAD, _rows(), 0)
        for i in range(7):
            _store(cache, _exact(i), [{"count_all": i}], 0)
        assert cache.lookup(BROAD, 0) is not None  # now most recent
        _store(cache, _exact(7), [{"count_all": 7}], 0)
        assert cache.lookup(_exact(0), 0) is None  # the oldest went
        assert cache.lookup(BROAD, 0) is not None

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
        assert cache.lookup(Query(limit=1), 1) is not None
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
        assert _count(metrics, "misses") == 1


def _exact(i):
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
        _, values = cache.lookup(Query(limit=3), 0)
        assert type(values) is tuple
        assert all(type(row) is tuple for row in values)
        assert cache.lookup(Query(limit=3), 0)[1] is values

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


class TestSignature:
    def test_rendered_once_per_query(self):
        assert BROAD.signature() is BROAD.signature()
        assert BROAD == Query(predicates=(Comparison("p_affinity", ">=",
                                                     6.0),))
        assert replace(BROAD, limit=3).signature() \
            == BROAD.signature() + " LIMIT 3"


# -- cache sequences ---------------------------------------------------------

class Shape(NamedTuple):
    """One DTQL text of a sequence, as the parts a narrowing moves."""

    bound: float
    clade: str | None = None
    select: str = "*"
    limit: int | None = None

    def text(self) -> str:
        text = (f"SELECT {self.select} FROM bindings "
                f"WHERE p_affinity >= {self.bound:.1f}")
        if self.clade is not None:
            text += f" IN SUBTREE '{self.clade}'"
        if self.limit is not None:
            text += f" ORDER BY p_affinity DESC LIMIT {self.limit}"
        return text


def narrow(shape: Shape, how: str, pick: int, tree) -> Shape:
    """*shape* narrowed one way; *pick* chooses among the options."""
    if how == "tighten":
        return shape._replace(bound=shape.bound + 0.5)
    if how == "child":
        node = tree.root if shape.clade is None else tree.find(shape.clade)
        if not node.children:
            return shape
        return shape._replace(
            clade=node.children[pick % len(node.children)].name)
    if how == "project":
        return shape._replace(select="ligand_id, p_affinity"
                              if shape.select == "*" else "ligand_id")
    if how == "order":
        return shape._replace(limit=3 + pick)
    return shape  # a verbatim repeat


#: The first text, then 1-5 steps: narrow the *pick*-th text so far
#: *how*, after one insert when *write* is set.
sequences = st.tuples(
    st.sampled_from((4.0, 5.0, 6.0)),
    st.lists(st.tuples(
        st.sampled_from(("tighten", "child", "project", "order", "repeat")),
        st.integers(0, 5),
        st.sampled_from((False, False, False, True))),
        min_size=1, max_size=5))


def check_cache_sequences(dataset):
    """Each answer of one cached engine equals a fresh uncached one's,
    and is ``exact`` exactly when its text ran before, since the last
    write."""
    proteins = dataset.family.protein_ids

    @settings(max_examples=40, deadline=None, database=None,
              derandomize=True, report_multiple_bugs=False,
              suppress_health_check=[HealthCheck.too_slow])
    @given(sequences)
    def replay(spec):
        drugtree, _ = dataset.integrate()  # a world of its own: it inserts
        cached = QueryEngine(drugtree)
        fresh = QueryEngine(drugtree,
                            EngineConfig(use_semantic_cache=False))
        bound, steps = spec
        shapes = [Shape(bound)]
        seen: set[Shape] = set()  # the texts run since the last write
        for how, pick, write in [(None, 0, False), *steps]:
            if how is not None:
                shapes.append(narrow(shapes[pick % len(shapes)], how, pick,
                                     drugtree.tree))
            if write:
                drugtree.add_binding(BindingRecord(
                    "LIG00000", proteins[pick % len(proteins)],
                    ActivityType.KI, 10.0 + pick))
                seen.clear()
            shape = shapes[-1]
            result = cached.execute(shape.text())
            want = fresh.execute(shape.text())
            assert (result.columns, result.values) \
                == (want.columns, want.values), shape.text()
            assert result.cache_outcome \
                == ("exact" if shape in seen else "miss"), shape.text()
            seen.add(shape)

    replay()


def signature_blind_to_the_clade(query):
    """Planted: the cache key leaves out the ``IN SUBTREE`` node, so a
    child clade's text hits its parent's entry."""
    return replace(query, subtree=None)._signature


class TestCacheSequences:
    @pytest.fixture(scope="class")
    def dataset(self):
        return build_dataset(DatasetConfig(n_leaves=12, n_ligands=12,
                                           seed=17))

    def test_every_answer_and_outcome(self, dataset):
        check_cache_sequences(dataset)

    def test_planted_signature_blind_to_the_clade_fails(self, dataset,
                                                        monkeypatch):
        monkeypatch.setattr(Query, "signature",
                            signature_blind_to_the_clade)
        with pytest.raises(AssertionError):
            check_cache_sequences(dataset)
