"""A clade's top-k by ``p_affinity`` is a lookup of its best bindings.

Every tree node keeps its best ``CLADE_TOP_K`` bindings, ``p_affinity``
descending and ties in ascending row id, folded on each appended batch
(``CladeAggregates._fold_best``); ``ORDER BY p_affinity DESC LIMIT k``
with ``k <= CLADE_TOP_K`` and no filter but lower bounds on
``p_affinity`` and an optional ``IN SUBTREE`` reads the node's list
(``CladeTopKOp``) and scans no row.

The property draws a world of few distinct keys (tie runs everywhere),
single-row and batch appends between queries, and queries at leaves,
internal nodes, the root and no clade, under ``>=`` and ``>`` bounds
at stored keys and between them, with ``LIMIT`` 1..K and K+1 (which
must walk the index instead). Each answer is compared with
``NaiveEngine``'s over the same rows, through a ``QueryEngine``, a
``ClusterEngine`` over the same writes, and a durable store reopened
from disk. Three planted mutants must fail it; a real-thread hammer
holds each answer to some whole-batch prefix.
"""

import sys
import tempfile
import threading
from unittest import mock

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from repro.bio import parse_newick
from repro.cluster.engine import ClusterEngine
from repro.cluster.replication import ClusterConfig
from repro.core import DrugTree, EngineConfig, QueryEngine, overlay
from repro.core.overlay import CLADE_TOP_K, CladeAggregates
from repro.core.query.vectorized import CladeTopKOp
from repro.storage.durable import StorageConfig
from tests.core.test_index_order_scan import (
    LEAVES,
    NEWICK,
    OverlayNaive,
    binding,
    free_walk,
)
from tests.core.test_row_order import rounded
from tests.storage.oracles import with_planted_bug

NO_CACHE = EngineConfig(use_semantic_cache=False)
#: Leaves, internal nodes, the root, and no clade at all.
CLADES = (None, "a", "f", "ab", "cd", "ef", "cdef", "root")
#: Few distinct keys: every list meets tie runs, and cuts inside them.
KEYS = (5.0, 5.5, 6.0, 6.5, 7.0)
#: Bounds at stored keys, between them and above them all.
BOUNDS = (*KEYS, 5.25, 7.5)
SELECTS = ("ligand_id, p_affinity", "*", "p_affinity, leaf_pre, protein_id")

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None,
                    database=None, phases=(Phase.explicit, Phase.generate))

cells = st.lists(st.tuples(st.sampled_from(LEAVES), st.sampled_from(KEYS)),
                 min_size=1, max_size=30)
queries = st.tuples(
    st.sampled_from(SELECTS), st.sampled_from(CLADES),
    st.one_of(st.none(), st.tuples(st.sampled_from((">=", ">")),
                                   st.sampled_from(BOUNDS))),
    st.integers(1, CLADE_TOP_K + 1))
steps = st.lists(st.one_of(
    st.tuples(st.just("insert"), cells.map(lambda drawn: drawn[:1])),
    st.tuples(st.just("batch"), cells),
    st.tuples(st.just("query"), queries)), min_size=1, max_size=10)


def text(select, clade, bound, limit):
    where = "" if bound is None else f" WHERE p_affinity {bound[0]} " \
        f"{bound[1]}"
    subtree = "" if clade is None else f" IN SUBTREE '{clade}'"
    return (f"SELECT {select} FROM bindings{where}{subtree} "
            f"ORDER BY p_affinity DESC LIMIT {limit}")


def append(drugtree, cells, serial):
    """*cells* as one append of validated rows (a durable table logs
    them first); returns the next serial."""
    table = drugtree.tables["bindings"]
    first = table.next_row_id
    rows = [table.schema.validate_row(binding(leaf, key, serial + i))
            for i, (leaf, key) in enumerate(cells)]
    table.append_rows(list(enumerate(rows, first)))
    return serial + len(cells)


class Worlds:
    """One in-memory overlay, its cluster and a durable store, kept
    equal by the same writes."""

    def __init__(self, initial, data_dir):
        self.storage = StorageConfig(durable=True, data_dir=data_dir,
                                     fsync="never")
        self.single = DrugTree(parse_newick(NEWICK))
        self.durable = DrugTree(parse_newick(NEWICK), storage=self.storage)
        self.serial = append(self.single, initial, 0)
        append(self.durable, initial, 0)
        self.single.create_default_indexes()
        self.clustered = ClusterEngine.from_drugtree(
            self.single, config=NO_CACHE,
            cluster_config=ClusterConfig(nodes=3, partitions=3,
                                         replication_factor=2))

    def write(self, cells):
        for leaf, key in cells:
            self.clustered.insert("bindings", binding(leaf, key,
                                                      self.serial))
            self.serial += 1
        append(self.durable, cells, self.serial - len(cells))
        append(self.single, cells, self.serial - len(cells))

    def reopen(self):
        self.durable.close()
        self.durable = DrugTree(parse_newick(NEWICK), storage=self.storage)
        self.durable.create_default_indexes()
        return self.durable

    def close(self):
        self.durable.close()


def answer_as_naive(result, naive_rows, dtql):
    assert all(row.keys() == set(result.columns) for row in naive_rows), \
        dtql
    assert rounded(result.values) == rounded(
        tuple(map(row.get, result.columns)) for row in naive_rows), dtql


def check_query(worlds, query):
    dtql = text(*query)
    naive = OverlayNaive(worlds.single).execute(dtql).rows
    engines = {"local": QueryEngine(worlds.single, NO_CACHE),
               "cluster": worlds.clustered,
               "durable": QueryEngine(worlds.reopen(), NO_CACHE)}
    limit = query[-1]
    for name, engine in engines.items():
        if limit > CLADE_TOP_K:
            with free_walk():  # past the lists: the walk answers
                result = engine.execute(dtql)
            assert "IndexOrderScanOp" in result.counters["operators"], \
                (name, dtql)
        else:
            result = engine.execute(dtql)
            assert result.counters["operators"] == ["CladeTopKOp"], \
                (name, dtql)
            assert result.counters["rows_scanned"] == 0
            assert result.counters["index_probes"] == 0
        answer_as_naive(result, naive, (name, dtql))


TIES = [("a", 6.0)] * 12 + [("f", 6.0)] * 12 + [("c", 5.0)] * 4


@SETTINGS
@given(initial=cells, steps=steps)
# A tie run across the root's cut: ascending row id decides.
@example(initial=TIES, steps=[("query", ("*", None, None, 5))])
# Exactly K qualifying rows, LIMIT K: every entry of the list.
@example(initial=TIES, steps=[("query", ("*", "root", (">=", 6.0),
                                         CLADE_TOP_K))])
# A batch that enters the leaves and, above them, the root.
@example(initial=TIES, steps=[
    ("batch", [("b", 7.0), ("e", 6.5), ("e", 7.0)]),
    ("query", ("ligand_id, p_affinity", None, (">", 6.0), 3))])
def check_clade_top_k(initial, steps):
    with tempfile.TemporaryDirectory() as data_dir:
        worlds = Worlds(initial, data_dir)
        try:
            for kind, drawn in steps:
                if kind == "query":
                    check_query(worlds, drawn)
                else:
                    worlds.write(drawn)
            check_query(worlds, ("*", None, None, CLADE_TOP_K))
        finally:
            worlds.close()


def test_every_clade_top_k_answers_as_the_naive_engine():
    check_clade_top_k()


def test_the_backfill_keeps_each_nodes_best_bindings():
    """A batch that lands before the list exists and one after it fold
    to the same lists, each node's the best K of its subtree."""
    cells = [(leaf, key) for key in KEYS for leaf in LEAVES] * 2
    drugtree = DrugTree(parse_newick(NEWICK))
    append(drugtree, cells, 0)
    late = CladeAggregates(drugtree.tree, drugtree.labeling,
                           drugtree.tables["bindings"])
    rows = list(drugtree.tables["bindings"].scan())
    for node in drugtree.tree.preorder():
        low, high = drugtree.labeling.leaf_range(node.name)
        expected = sorted((-row[4], row_id) for row_id, row in rows
                          if low <= row[6] < high)[:CLADE_TOP_K]
        assert drugtree.clade_aggregates.best_for_name(node.name) \
            == tuple(expected) == late.best_for_name(node.name)


def test_a_row_stops_at_the_first_node_it_misses():
    """Twenty rows at 7.0 under leaf a fill a, ab and root; one more at
    5.0 enters no list, so no tuple is replaced."""
    drugtree = DrugTree(parse_newick(NEWICK))
    append(drugtree, [("a", 7.0)] * CLADE_TOP_K, 0)
    aggregates = drugtree.clade_aggregates
    before = list(aggregates._best)
    append(drugtree, [("a", 5.0)], CLADE_TOP_K)
    assert all(now is then for now, then in zip(aggregates._best, before))


# -- planted mutants -----------------------------------------------------------

PLANTED = {
    "ties in descending row id": (
        (CladeAggregates, "_fold",
         ("(-value, row_id)", "(-value, -row_id)")),
        (CladeTopKOp, "_answer",
         ("table.get(row_id)", "table.get(-row_id)"))),
    "a fold that stops one level early": (
        (CladeAggregates, "_fold_best",
         ("for slot in path:", "for slot in path[:-1]:")),),
}


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_planted_bug_is_caught(name):
    patches = [mock.patch.object(owner, attribute,
                                 with_planted_bug(getattr(owner, attribute),
                                                  bug))
               for owner, attribute, bug in PLANTED[name]]
    for patch in patches:
        patch.start()
    try:
        with pytest.raises(AssertionError):
            check_clade_top_k()
    finally:
        for patch in patches:
            patch.stop()


def test_planted_bug_a_list_one_entry_short_is_caught(monkeypatch):
    # The fold cuts at one less than the planner trusts it to hold.
    monkeypatch.setattr(overlay, "CLADE_TOP_K", CLADE_TOP_K - 1)
    with pytest.raises(AssertionError):
        check_clade_top_k()


# -- real threads --------------------------------------------------------------

HAMMER_QUERIES = [text("*", clade, bound, limit)
                  for clade, bound, limit in (
                      (None, None, 10), ("root", (">=", 6.0), CLADE_TOP_K),
                      ("cdef", (">", 5.5), 10), ("ab", None, 5),
                      ("e", (">=", 5.0), 10))]


def batch_of(number):
    """Batch *number*: two rows under every leaf, above every earlier
    batch and tied in pairs, so each batch enters the list of every
    node and replaces lists that several of its leaves share."""
    return [(leaf, 8.0 + number / 100 + i % 2 / 200)
            for i, leaf in enumerate(LEAVES * 2)]


def race_top_k(drugtree, batches):
    """Two readers run :data:`HAMMER_QUERIES` while a writer appends
    *batches* batches; every answer seen, and any error raised."""
    engine = QueryEngine(drugtree, NO_CACHE)
    seen: list[tuple[str, tuple]] = []
    errors: list[BaseException] = []
    done = threading.Event()

    def reader():
        try:
            while True:  # at least one round, however fast the writer
                for dtql in HAMMER_QUERIES:
                    seen.append((dtql, engine.execute(dtql).values))
                if done.is_set():
                    break
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    def writer():
        try:
            serial = drugtree.tables["bindings"].row_count
            for number in range(batches):
                serial = append(drugtree, batch_of(number), serial)
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)
        finally:
            done.set()

    threads = [threading.Thread(target=writer)]
    threads += [threading.Thread(target=reader) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    return seen, errors


def test_top_k_racing_batch_appends_answers_some_whole_batch_prefix():
    """Real threads, a switch every microsecond: each answer equals the
    naive engine's over the rows of some whole number of batches."""
    batches = 40
    prefix = DrugTree(parse_newick(NEWICK))
    serial = append(prefix, TIES, 0)
    naive = OverlayNaive(prefix)
    allowed = {dtql: set() for dtql in HAMMER_QUERIES}
    for number in range(batches + 1):
        for dtql in HAMMER_QUERIES:
            allowed[dtql].add(tuple(
                tuple(row.values()) for row in naive.execute(dtql).rows))
        if number < batches:
            serial = append(prefix, batch_of(number), serial)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(8):
            drugtree = DrugTree(parse_newick(NEWICK))
            append(drugtree, TIES, 0)
            seen, errors = race_top_k(drugtree, batches)
            assert errors == []
            assert seen
            for dtql, values in seen:
                assert values in allowed[dtql], dtql
    finally:
        sys.setswitchinterval(interval)
