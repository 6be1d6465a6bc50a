"""A query result is ``columns`` plus one value tuple per row.

The engine drains its plan root into value tuples, the semantic cache
stores and serves those tuples as they are, and ``QueryResult.rows``
builds dicts only when a caller reads it. These tests pin that form on
every query kind, both engines and every cache path, against the naive
federated engine, and plant the two bugs the form invites: a drain
that loses rows and a cache entry a caller can mutate.
"""

import contextlib

import pytest

import repro.core.query.executor as executor
from repro.core import EngineConfig, NaiveEngine, QueryEngine
from repro.core.query import vectorized
from repro.core.query.cache import SemanticCache
from repro.core.query.vectorized import Batch
from repro.errors import QueryError
from repro.workloads import DatasetConfig, QueryGenerator, build_dataset
from repro.workloads.queries import ALL_KINDS
from tests.core.test_equivalence import rounded

PATHS = ("off", "exact")


@pytest.fixture(scope="module")
def world():
    dataset = build_dataset(DatasetConfig(n_leaves=16, n_ligands=24,
                                          seed=17))
    return (dataset, dataset.drugtree(),
            NaiveEngine(dataset.tree, dataset.registry))


def _queries(dataset, kind, count=3):
    generator = QueryGenerator(dataset.family, dataset.ligands, seed=5)
    return [generator.draw(kind) for _ in range(count)]


def assert_answers_match_naive(engine, naive, queries, path="off"):
    for query in queries:
        engine.cache = SemanticCache()
        if path == "exact":
            engine.execute(query)
        result = engine.execute(query)
        if path == "exact":
            assert result.cache_outcome == "exact", query
        assert all(len(values) == len(result.columns)
                   for values in result.values), query
        assert result.rows == [dict(zip(result.columns, values))
                               for values in result.values], query
        assert len(result) == len(result.rows)
        expected = naive.execute(query).rows
        assert rounded(result.rows) == rounded(expected), query


class TestEveryKindEveryPath:
    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("mode", ["vectorized", "row"])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_rows_are_the_values_and_the_naive_answer(self, world, kind,
                                                      mode, path):
        dataset, drugtree, naive = world
        engine = QueryEngine(drugtree, EngineConfig(
            execution_mode=mode, use_semantic_cache=path != "off"))
        assert_answers_match_naive(engine, naive, _queries(dataset, kind),
                                   path)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_both_engines_return_the_same_tuples(self, world, kind):
        dataset, drugtree, _ = world
        engines = [QueryEngine(drugtree, EngineConfig(
            execution_mode=mode, use_semantic_cache=False))
            for mode in ("vectorized", "row")]
        for query in _queries(dataset, kind):
            batch, row = (engine.execute(query) for engine in engines)
            assert batch.columns == row.columns, query
            assert list(batch.values) == list(row.values), query

    def test_a_provably_empty_query_keeps_its_summary_row(self, world):
        _, drugtree, _ = world
        result = QueryEngine(drugtree).execute(
            "SELECT count(*) FROM bindings "
            "WHERE p_affinity > 9 AND p_affinity < 2")
        assert (result.columns, list(result.values)) \
            == (("count_all",), [(0,)])
        assert result.scalar() == 0


class TestNoDictUntilAsked:
    def test_len_column_and_scalar_build_no_dict(self, world):
        _, drugtree, _ = world
        engine = QueryEngine(drugtree)
        result = engine.execute("SELECT ligand_id, p_affinity "
                                "FROM bindings WHERE p_affinity >= 6")
        assert len(result) > 0
        assert result.column("p_affinity") == [
            values[1] for values in result.values]
        assert result.column("organism") == [None] * len(result)
        count = engine.execute("SELECT count(*) FROM bindings")
        assert count.scalar() == drugtree.tables["bindings"].row_count
        assert "rows" not in vars(result) and "rows" not in vars(count)

    def test_rows_are_built_once(self, world):
        _, drugtree, _ = world
        result = QueryEngine(drugtree).execute(
            "SELECT ligand_id FROM bindings LIMIT 3")
        assert result.rows is result.rows

    def test_a_zero_column_batch_keeps_its_row_count(self):
        class Root:
            def batches(self):
                yield Batch((), {}, 3)
                yield Batch((), {}, 0)
                yield Batch((), {}, 2)

        columns, values = executor._drain(Root(), "vectorized")
        assert (columns, values) == ((), ((),) * 5)
        assert list(Batch((), {}, 2).iter_rows()) == [{}, {}]

    def test_batches_in_two_column_orders_are_an_engine_bug(self):
        class Root:
            def batches(self):
                yield Batch(("a", "b"), {"a": [1], "b": [2]}, 1)
                yield Batch(("b", "a"), {"a": [1], "b": [2]}, 1)

        with pytest.raises(QueryError, match="engine bug"):
            executor._drain(Root(), "vectorized")

    def test_row_dicts_in_two_key_orders_are_an_engine_bug(self):
        class Root:
            def __init__(self, rows):
                self._rows = rows

            def rows(self):
                return iter(self._rows)

        with pytest.raises(QueryError, match="engine bug"):
            executor._drain(Root([{"a": 1, "b": 2}, {"b": 2, "a": 1}]),
                            "row")
        assert executor._drain(Root([]), "row") == ((), ())


def drop_last_partial_batch(root, mode):
    """Planted: the drain loses a last batch shorter than the first, the
    tail of every answer that does not fill its batches."""
    batches = [batch for batch in root.batches() if len(batch)]
    if len(batches) > 1 and len(batches[-1]) < len(batches[0]):
        batches.pop()
    columns = batches[0].order if batches else ()
    return columns, [values for batch in batches
                     for values in batch.tuples()]


class HandsOutItsList(SemanticCache):
    """Planted: the entry keeps its values in a list and hands that
    list to every hit, so a caller that mutates one rewrites the next."""

    def store(self, query, columns, values, version):
        super().store(query, columns, values, version)
        with self._lock:
            if query.signature() in self._entries:
                self._entries[query.signature()] = (columns, list(values))


def assert_a_mutated_hit_leaves_the_next_hit_intact(drugtree,
                                                    cache_class):
    engine = QueryEngine(drugtree)
    engine.cache = cache_class()
    text = "SELECT ligand_id, p_affinity FROM bindings WHERE p_affinity >= 6"
    expected = list(engine.execute(text).values)
    hit = engine.execute(text)
    assert hit.cache_outcome == "exact"
    hit.rows[0]["p_affinity"] = -1.0
    with contextlib.suppress(AttributeError):  # a tuple has no clear()
        hit.values.clear()
    again = engine.execute(text)
    assert again.cache_outcome == "exact"
    assert list(again.values) == expected


class TestPlantedBugs:
    def test_a_small_batch_size_drains_every_row(self, world, monkeypatch):
        monkeypatch.setattr(vectorized, "BATCH_SIZE", 4)
        dataset, drugtree, naive = world
        engine = QueryEngine(drugtree, EngineConfig(
            use_semantic_cache=False))
        assert_answers_match_naive(engine, naive,
                                   _queries(dataset, "subtree_filter"))

    def test_planted_drain_that_drops_the_last_batch_fails(
            self, world, monkeypatch):
        dataset, drugtree, naive = world
        monkeypatch.setattr(executor, "_drain", drop_last_partial_batch)
        monkeypatch.setattr(vectorized, "BATCH_SIZE", 4)
        engine = QueryEngine(drugtree, EngineConfig(
            use_semantic_cache=False))
        with pytest.raises(AssertionError):
            assert_answers_match_naive(engine, naive,
                                       _queries(dataset, "subtree_filter"))

    def test_a_mutated_hit_leaves_the_next_hit_intact(self, world):
        assert_a_mutated_hit_leaves_the_next_hit_intact(world[1],
                                                        SemanticCache)

    def test_planted_cache_that_hands_out_its_list_fails(self, world):
        with pytest.raises(AssertionError):
            assert_a_mutated_hit_leaves_the_next_hit_intact(
                world[1], HandsOutItsList)
