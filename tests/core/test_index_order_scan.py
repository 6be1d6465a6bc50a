"""``ORDER BY c LIMIT k`` served by walking the sorted index on ``c``.

The walk must return exactly what a scan plus a stable top-k returns —
same rows, same order, equal keys in ascending row id, NULL keys first
ascending / last descending — and stop early. The property runs random
small tables (heavy ties, NULL keys, rows bulk-loaded into the indexes,
later live inserts) through the default engine, the row engine and
``NaiveEngine``; the directed cases pin the plan shapes the walk is and
is not offered for, the adversarial clade, the cluster path, and one
planted bug per rule of ``SortedIndex.ordered``.
"""

import random
from itertools import groupby
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bio import parse_newick
from repro.core import DrugTree, EngineConfig, NaiveEngine, QueryEngine
from repro.core.query import cost as cost_model
from repro.core.query.ast import (
    Comparison,
    OrderBy,
    Query,
    SubtreeFilter,
)
from repro.core.query.cost import Cost
from repro.core.query.logical import LogicalScan
from repro.core.query.parser import parse_query
from repro.core.query.physical import ExecCounters
from repro.core.query.vectorized import (
    Batch,
    VecTopKOp,
    _Materializing,
)
from repro.storage.index import SortedIndex
from repro.workloads import DatasetConfig, build_dataset
from repro.workloads.loadgen import _QUERY_TEMPLATES
from tests.cluster.test_parity import make_pair
from tests.cluster.test_view_delta import insert_binding

NEWICK = "((a:1,b:1)ab:1,((c:1,d:1)cd:1,(e:1,f:1)ef:1)cdef:1)root;"
LEAVES = "abcdef"
CLADES = ("root", "ab", "cdef", "cd", "ef")
#: Few distinct keys over tens of rows: every query meets tie runs.
KEYS = (5.0, 5.5, 6.0, 6.5, 7.0)
COUNTERS = ("rows_scanned", "rows_emitted", "index_probes")
NO_CACHE = EngineConfig(use_semantic_cache=False)
ROW_MODE = EngineConfig(use_semantic_cache=False, execution_mode="row")
TAP_TEMPLATE = _QUERY_TEMPLATES[1]


class _NoSources:
    """NaiveEngine's registry when its rows come from the overlay."""

    @staticmethod
    def combined_stats():
        return {"roundtrips": 0, "virtual_latency_s": 0.0}


class OverlayNaive(NaiveEngine):
    """``NaiveEngine``'s filter → project → stable sort → slice over the
    overlay's rows in row-id order. Its own row source, the simulated
    federation, cannot see an overlay insert."""

    def __init__(self, drugtree):
        super().__init__(drugtree.tree, _NoSources())
        self.drugtree = drugtree

    def _rows_of(self, table_name, scope, leaf_positions):
        table = self.drugtree.tables[table_name]
        inside = set(scope)
        rows = (table.schema.row_as_dict(row) for _, row in table.scan())
        return [row for row in rows if row["protein_id"] in inside]


def binding(leaf, key, serial):
    return {
        "ligand_id": f"L{serial % 4}", "protein_id": leaf,
        "activity_type": "Ki" if serial % 3 else "IC50",
        "value_nm": round(10.0 ** (9 - key), 4), "p_affinity": key,
        "potent": key >= 6.0, "leaf_pre": LEAVES.index(leaf),
    }


def protein(leaf, key, serial):
    return {
        "protein_id": leaf, "organism": f"org{serial % 2}",
        "family": None, "ec_number": None, "resolution": key,
        "leaf_pre": LEAVES.index(leaf),
    }


#: table → (sort column, row maker, key values, residuals to draw from)
SHAPES = {
    "bindings": ("p_affinity", binding, KEYS, (
        Comparison("potent", "=", True),
        Comparison("activity_type", "=", "Ki"),
        Comparison("ligand_id", "!=", "L1"),
        Comparison("p_affinity", "!=", 6.0),
    )),
    # resolution is the overlay's nullable numeric column: NULL keys.
    "proteins": ("resolution", protein, (None, None, 1.5, 2.0, 2.5), (
        Comparison("organism", "=", "org0"),
        Comparison("resolution", "!=", 2.0),
    )),
}


def build_world(table_name, cells, late_cells):
    """Insert *cells*, then build the indexes (a bulk load) and the
    column store (a backfill) over them, then insert *late_cells*
    through both (ids above every old one)."""
    _, make_row, _, _ = SHAPES[table_name]
    drugtree = DrugTree(parse_newick(NEWICK))
    table = drugtree.tables[table_name]
    for serial, (leaf, key) in enumerate(cells):
        table.insert(make_row(leaf, key, serial))
    drugtree.create_default_indexes()
    drugtree.tables["proteins"].create_index(["resolution"], kind="sorted")
    store = table.column_store()
    for serial, (leaf, key) in enumerate(late_cells, start=len(cells)):
        table.insert(make_row(leaf, key, serial))
    assert store.verify_against_rows()
    return drugtree


@st.composite
def worlds_and_queries(draw):
    table_name = draw(st.sampled_from(sorted(SHAPES)))
    column, _, keys, residuals = SHAPES[table_name]
    cell = st.tuples(st.sampled_from(LEAVES), st.sampled_from(keys))
    cells = draw(st.lists(cell, max_size=40))
    late_cells = draw(st.lists(cell, max_size=10))
    bounds = [value for value in keys if value is not None]
    predicates = list(draw(st.lists(st.sampled_from(residuals),
                                    unique=True, max_size=2)))
    for ops in ((">=", ">"), ("<=", "<")):  # a bound from either side
        if draw(st.booleans()):
            predicates.append(Comparison(
                column, draw(st.sampled_from(ops)),
                draw(st.sampled_from(bounds))))
    clade = draw(st.sampled_from((None,) + CLADES))
    query = Query(
        select=draw(st.sampled_from(((), ("protein_id", column)))),
        from_tables=(table_name,),
        predicates=tuple(predicates),
        subtree=SubtreeFilter(clade) if clade else None,
        order_by=OrderBy(column, descending=draw(st.booleans())),
        limit=draw(st.integers(1, len(cells) + len(late_cells) + 3)),
    )
    return (table_name, cells, late_cells), query


def free_walk():
    """Price the walk at zero: the planner takes it wherever it offers
    it, so "not chosen" under this patch means "not offered"."""
    return mock.patch.object(cost_model, "index_order_cost",
                             lambda walked, residuals: Cost(0.0))


def assert_engines_agree(drugtree, query, naive=None):
    fast = QueryEngine(drugtree, NO_CACHE).execute(query)
    slow = QueryEngine(drugtree, ROW_MODE).execute(query)
    oracle = (naive or OverlayNaive(drugtree)).execute(query)
    assert fast.rows == oracle.rows, query
    assert slow.rows == oracle.rows, query
    assert ({name: fast.counters[name] for name in COUNTERS}
            == {name: slow.counters[name] for name in COUNTERS}), query
    return fast


class TestWalkEqualsScanPlusStableTopK:
    @settings(max_examples=120, deadline=None)
    @given(worlds_and_queries())
    def test_costed_choice_matches_naive_and_row_mode(self, case):
        world, query = case
        assert_engines_agree(build_world(*world), query)

    @settings(max_examples=120, deadline=None)
    @given(worlds_and_queries())
    def test_forced_walk_matches_naive_and_row_mode(self, case):
        world, query = case
        drugtree = build_world(*world)
        with free_walk():
            result = assert_engines_agree(drugtree, query)
        if not result.counters["operators"]:
            return  # contradictory bounds: the analyzer answered
        assert "IndexOrderScanOp" in result.counters["operators"]
        assert result.counters["index_probes"] == 1
        # Early stop: never more entries than the table holds.
        assert result.counters["rows_scanned"] \
            <= drugtree.tables[query.from_tables[0]].row_count


# -- plan shapes -------------------------------------------------------------

@pytest.fixture(scope="module")
def world():
    dataset = build_dataset(DatasetConfig(n_leaves=40, n_ligands=60,
                                          seed=3))
    return dataset, dataset.drugtree()


def scan_of(drugtree, query, **config):
    engine = QueryEngine(drugtree, EngineConfig(use_semantic_cache=False,
                                                **config))
    node = engine.planner.plan(parse_query(query)).logical
    while not isinstance(node, LogicalScan):
        node = node.children()[0]
    return node


def clades_by_size(dataset, drugtree):
    sizes = {name: drugtree.clade_stats(name)["count"]
             for name in dataset.family.clade_names}
    return sorted(sizes, key=sizes.get)


class TestPlanShape:
    TOPK = ("SELECT ligand_id, protein_id, p_affinity FROM bindings "
            "ORDER BY p_affinity DESC LIMIT 10")

    def test_unfiltered_table_walks(self, world):
        _, drugtree = world
        scan = scan_of(drugtree, self.TOPK)
        assert (scan.access, scan.access_column) == ("index_order",
                                                     "p_affinity")
        assert scan.descending and scan.limit == 10
        assert scan.residual == ()
        assert scan.describe().startswith(
            "IndexOrderScan(p_affinity DESC, first 10) on bindings (")

    def test_root_clade_walks_with_the_clade_as_residual(self, world):
        dataset, drugtree = world
        root = clades_by_size(dataset, drugtree)[-1]
        scan = scan_of(drugtree,
                       TAP_TEMPLATE.format(clade=root, threshold=6.0))
        assert scan.access == "index_order"
        assert (scan.band.low, scan.band.include_low) == (6.0, True)
        assert {p.column for p in scan.residual} == {"leaf_pre"}
        assert "IndexOrderScan(p_affinity DESC in [6.0, ], first 10) " \
            "on bindings filter leaf_pre >= " in scan.describe()

    def test_small_clade_keeps_the_clade_scan(self, world):
        dataset, drugtree = world
        small = clades_by_size(dataset, drugtree)[0]
        scan = scan_of(drugtree,
                       TAP_TEMPLATE.format(clade=small, threshold=6.0))
        assert (scan.access, scan.access_column) == ("index_range",
                                                     "leaf_pre")

    @pytest.mark.parametrize("query", [
        pytest.param(
            "SELECT protein_id, organism, p_affinity "
            "FROM bindings, proteins ORDER BY p_affinity DESC LIMIT 5",
            id="join"),
        pytest.param(
            "SELECT p_affinity, count(*) FROM bindings "
            "GROUP BY p_affinity ORDER BY p_affinity DESC LIMIT 3",
            id="aggregate"),
        pytest.param(
            "SELECT * FROM bindings WHERE ligand_id IN ('LIG0001', "
            "'LIG0002') ORDER BY p_affinity DESC LIMIT 5",
            id="in-predicate"),
        pytest.param(
            "SELECT protein_id, leaf_pre, method FROM proteins "
            "ORDER BY leaf_pre LIMIT 3",
            id="remote-detail-column"),
        pytest.param(
            "SELECT ligand_id FROM bindings "
            "ORDER BY p_affinity DESC LIMIT 3",
            id="dropped-sort-column"),
        pytest.param(
            "SELECT * FROM bindings ORDER BY value_nm LIMIT 5",
            id="no-index"),
        pytest.param(
            "SELECT * FROM bindings ORDER BY ligand_id LIMIT 5",
            id="hash-index-only"),
        pytest.param(
            "SELECT * FROM bindings ORDER BY p_affinity DESC",
            id="no-limit"),
    ])
    def test_walk_is_not_offered(self, world, query):
        _, drugtree = world
        with free_walk():
            assert scan_of(drugtree, query).access != "index_order"

    def test_walk_is_not_offered_without_indexes(self, world):
        _, drugtree = world
        with free_walk():
            assert scan_of(drugtree, self.TOPK,
                           use_indexes=False).access == "seq"

    def test_walk_is_not_offered_without_interval_labeling(self, world):
        # The ablation rewrites the clade to protein_id IN (...): a
        # key-set predicate.
        dataset, drugtree = world
        root = clades_by_size(dataset, drugtree)[-1]
        with free_walk():
            scan = scan_of(
                drugtree, TAP_TEMPLATE.format(clade=root, threshold=6.0),
                use_interval_labeling=False)
        assert scan.access != "index_order"

    def test_dropped_sort_column_still_answers_in_scan_order(self, world):
        # Kept semantics (the oracle agrees); DTQL303 is the warning.
        dataset, drugtree = world
        query = "SELECT ligand_id FROM bindings ORDER BY p_affinity " \
            "DESC LIMIT 3"
        rows = QueryEngine(drugtree, NO_CACHE).execute(query).rows
        assert rows == NaiveEngine(dataset.tree,
                                   dataset.registry).execute(query).rows
        assert rows == QueryEngine(drugtree, NO_CACHE).execute(
            "SELECT ligand_id FROM bindings LIMIT 3").rows

    def test_every_clade_and_the_plain_topk_equal_the_federated_naive(
            self, world):
        dataset, drugtree = world
        naive = NaiveEngine(dataset.tree, dataset.registry)
        queries = [self.TOPK, self.TOPK.replace("DESC", "ASC")]
        queries += [TAP_TEMPLATE.format(clade=clade, threshold=threshold)
                    for clade in dataset.family.clade_names
                    for threshold in (5.0, 6.5, 8.0)]
        walked = 0
        for query in queries:
            result = assert_engines_agree(drugtree, query, naive)
            walked += "IndexOrderScanOp" in result.counters["operators"]
        assert 2 < walked < len(queries)  # both plans were exercised

    def test_explain_analyze_reports_estimated_and_actual_walk(
            self, world):
        dataset, drugtree = world
        root = clades_by_size(dataset, drugtree)[-1]
        query = TAP_TEMPLATE.format(clade=root, threshold=6.0)
        for config in (NO_CACHE, ROW_MODE):
            engine = QueryEngine(drugtree, config)
            report = engine.analyze(query)
            scanned = report.counters["rows_scanned"]
            line = next(line for line in report.render().splitlines()
                        if "IndexOrderScan(" in line)
            assert ", walk ~" in line
            assert f"[actual rows=10, walked={scanned}, " in line
        # Row runs still report no batches (docs/EXECUTION.md).
        assert "batches_emitted" not in report.counters


# -- the adversarial clade ---------------------------------------------------

class TestAdversarialClade:
    """The estimate says "k / selectivity entries"; a clade with no row
    above the threshold makes the walk read its whole range instead.
    It must still be right, and bounded by the entries in range."""

    def check(self, drugtree, clade, threshold, forced):
        query = TAP_TEMPLATE.format(clade=clade, threshold=threshold)
        index = drugtree.tables["bindings"].index_on("p_affinity",
                                                     require_range=True)
        in_range = len(index.range(low=threshold))
        if forced:
            with free_walk():
                result = assert_engines_agree(drugtree, query)
            assert "IndexOrderScanOp" in result.counters["operators"]
            assert result.counters["rows_scanned"] <= in_range
        else:
            result = assert_engines_agree(drugtree, query)
        return result

    @pytest.mark.parametrize("forced", [False, True])
    def test_empty_and_short_results(self, world, forced):
        dataset, drugtree = world
        bindings = drugtree.tables["bindings"]
        small = clades_by_size(dataset, drugtree)[0]
        low, high = drugtree.labeling.leaf_range(small)
        inside = sorted(
            (row for row in map(bindings.schema.row_as_dict,
                                bindings.scan_rows())
             if low <= row["leaf_pre"] < high),
            key=lambda row: row["p_affinity"])
        assert len(inside) > 3
        best = inside[-1]["p_affinity"]
        # Nothing in the clade is above its own maximum.
        assert self.check(drugtree, small, best + 0.01, forced).rows == []
        # Only the clade's top three (and their ties) qualify: short.
        third = inside[-3]["p_affinity"]
        qualifying = sum(row["p_affinity"] >= third for row in inside)
        short = self.check(drugtree, small, third, forced).rows
        assert len(short) == min(qualifying, 10) >= 3


# -- cluster -----------------------------------------------------------------

def test_cluster_topk_after_an_absorbed_insert_equals_the_mirror():
    dataset, single, clustered = make_pair(seed=7)
    topk = TestPlanShape.TOPK
    assert clustered.execute(topk).rows == single.execute(topk).rows
    proteins = dataset.family.protein_ids
    best = single.execute(topk).rows[0]["p_affinity"]
    # A new best row, and a tie with the old best that must sort
    # behind it (higher row id).
    insert_binding(clustered, single.drugtree, proteins[0], "LIG-TOP",
                   best + 0.5)
    insert_binding(clustered, single.drugtree, proteins[-1], "LIG-TIE",
                   best)
    answer = clustered.execute(topk)
    assert clustered.last_route["view"] == "absorbed"
    assert "IndexOrderScanOp" in answer.counters["operators"]
    assert answer.rows == single.execute(topk).rows
    assert answer.rows[0]["ligand_id"] == "LIG-TOP"
    ties = [row["ligand_id"] for row in answer.rows
            if row["p_affinity"] == best]
    assert ties[-1] == "LIG-TIE" and len(ties) >= 2


# -- one planted bug per rule ------------------------------------------------

def check_tie_rule():
    """Equal keys come back in ascending row id, both directions."""
    cells = [(leaf, key) for key in (6.0, 7.0, 6.0) for leaf in LEAVES]
    drugtree = build_world("bindings", cells, late_cells=[
        ("a", 7.0), ("f", 6.0)])
    for descending in (True, False):
        query = Query(from_tables=("bindings",),
                      order_by=OrderBy("p_affinity", descending), limit=9)
        with free_walk():
            result = assert_engines_agree(drugtree, query)
        assert "IndexOrderScanOp" in result.counters["operators"]


def check_walk_respects_its_bounds():
    """A clade with fewer than k rows inside the bound: short answer."""
    cells = [(leaf, key) for key in KEYS for leaf in LEAVES]
    drugtree = build_world("bindings", cells, late_cells=[])
    for predicate, descending in (
            (Comparison("p_affinity", ">=", 6.5), True),
            (Comparison("p_affinity", "<", 5.5), False)):
        query = Query(from_tables=("bindings",), predicates=(predicate,),
                      subtree=SubtreeFilter("cd"),
                      order_by=OrderBy("p_affinity", descending), limit=10)
        with free_walk():
            result = assert_engines_agree(drugtree, query)
        assert "IndexOrderScanOp" in result.counters["operators"]
        assert 0 < len(result.rows) < 10


def test_ties_come_back_in_ascending_row_id():
    check_tie_rule()


def test_walk_respects_its_bounds():
    check_walk_respects_its_bounds()


def test_planted_bug_ties_in_descending_row_id_is_caught(monkeypatch):
    ordered = SortedIndex.ordered

    def ties_reversed(self, *args):
        # check_tie_rule's keys, read back through the public lookup.
        key_of = {row_id: key for key in (6.0, 7.0)
                  for row_id in self.lookup(key)}
        runs = groupby(ordered(self, *args), key=key_of.get)
        return iter([row_id for _, run in runs
                     for row_id in reversed(list(run))])

    monkeypatch.setattr(SortedIndex, "ordered", ties_reversed)
    with pytest.raises(AssertionError):
        check_tie_rule()


def test_planted_bug_walk_ignores_its_bounds_is_caught(monkeypatch):
    ordered = SortedIndex.ordered
    monkeypatch.setattr(
        SortedIndex, "ordered",
        lambda self, descending=False, *bounds: ordered(self, descending))
    with pytest.raises(AssertionError):
        check_walk_respects_its_bounds()


# -- the top-k that is left: a bounded running heap --------------------------

class _Batches:
    def __init__(self, values, size):
        self.values, self.size = values, size

    def batches(self):
        for start in range(0, len(self.values), self.size):
            chunk = self.values[start:start + self.size]
            yield Batch(("key", "arrival"), {
                "key": [key for key, _ in chunk],
                "arrival": [arrival for _, arrival in chunk],
            }, len(chunk))


class TestBoundedTopK:
    @pytest.mark.parametrize("descending", [False, True])
    @pytest.mark.parametrize("size", [1, 3, 7, 1000])
    @pytest.mark.parametrize("limit", [1, 4, 50, 500])
    def test_equals_the_stable_sort_sliced_to_k(self, descending, size,
                                                limit):
        rng = random.Random(limit * 31 + size)
        values = [(rng.choice((None, 1, 2, 2, 3, 3, 3)), arrival)
                  for arrival in range(200)]
        op = VecTopKOp(ExecCounters(), _Batches(values, size),
                       OrderBy("key", descending), limit)
        expected = sorted(
            values, key=lambda item: (item[0] is not None, item[0]),
            reverse=descending)[:limit]
        assert [(row["key"], row["arrival"]) for row in op.rows()] \
            == expected
        assert op.counters.rows_emitted == len(expected)

    def test_never_holds_more_than_k_plus_one_batch(self, monkeypatch):
        largest = []
        take = Batch.take

        def watching_take(self, positions):
            largest.append(len(self))
            return take(self, positions)

        monkeypatch.setattr(Batch, "take", watching_take)
        values = [(arrival % 17, arrival) for arrival in range(2000)]
        op = VecTopKOp(ExecCounters(), _Batches(values, 64),
                       OrderBy("key", True), 10)
        assert len(list(op.rows())) == 10
        assert max(largest) <= 64 + 10
        assert not issubclass(VecTopKOp, _Materializing)
