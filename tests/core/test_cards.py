"""The cardinality estimator counts through the live indexes.

One predicate on a counted column is estimated at exactly the rows it
keeps (q-error 1.0): ``=``, ``!=`` and ``IN`` on every indexed column
and every column the table keeps value counts of, ranges and
two-sided bands on every sorted-indexed one, however many rows were
inserted since the indexes were built. The reference is the
naive engine's: on the integrated world its own count, after inserts
its filter (:meth:`Comparison.matches`, NULL never matching) over the
table's rows. Sorted indexes hold two keys per chunk here, so bands
start and stop at chunk edges all the time.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DrugTree, NaiveEngine
from repro.core.query.ast import AggregateSpec, Band, Comparison, Query
from repro.core.query.cards import (
    DEFAULT_SELECTIVITY,
    MIN_ROWS,
    CardinalityEstimator,
)
from repro.storage import (
    Schema,
    SortedIndex,
    Table,
    bool_column,
    float_column,
    string_column,
)
from repro.storage.schema import ColumnType
from repro.workloads import DatasetConfig, build_dataset

SMALL_CHUNK = 2


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(DatasetConfig(n_leaves=12, n_ligands=16, seed=41))


@pytest.fixture(scope="module")
def world(dataset):
    with mock.patch.object(SortedIndex, "CHUNK", SMALL_CHUNK):
        return dataset.drugtree()


def counted_columns(drugtree):
    """``(table, column, sorted?)`` of every column with a single-column
    index or value counts."""
    return [(name, column.name,
             isinstance(table.index_on(column.name), SortedIndex))
            for name, table in sorted(drugtree.tables.items())
            for column in table.schema
            if table.index_on(column.name) is not None
            or table.value_counts(column.name) is not None]


def reference(table, predicates):
    """Rows of *table* every predicate keeps, by the naive filter."""
    positions = [table.schema.index_of(p.column) for p in predicates]
    return sum(all(p.matches(row[at])
                   for p, at in zip(predicates, positions))
               for row in table.scan_rows())


def values_of(table, column):
    """The column's distinct non-null values, ascending, plus one
    value no row holds."""
    at = table.schema.index_of(column)
    held = sorted({row[at] for row in table.scan_rows()} - {None})
    if table.schema.column(column).type is ColumnType.BOOL:
        return [False, True]
    if table.schema.column(column).type is ColumnType.STRING:
        return held + ["~absent"]
    return held + [held[-1] + 1]


def predicates_for(data, table, column, ranged):
    """One drawn predicate, or a two-sided band on a sorted column."""
    pool = st.sampled_from(values_of(table, column))
    ops = ["=", "!=", "in"] + (["<", "<=", ">", ">=", "band"]
                               if ranged else [])
    op = data.draw(st.sampled_from(ops))
    if op == "in":
        members = data.draw(st.lists(pool, min_size=1, max_size=4))
        return (Comparison(column, "in", tuple(members)),)
    if op == "band":
        low, high = data.draw(pool), data.draw(pool)
        return (Comparison(column, data.draw(st.sampled_from((">", ">="))),
                           low),
                Comparison(column, data.draw(st.sampled_from(("<", "<="))),
                           high))
    return (Comparison(column, op, data.draw(pool)),)


def insert_like(data, drugtree):
    """Insert a copy of a drawn row with one counted column changed to
    a held value, a new one, or NULL where the column allows it."""
    name, column, _ = data.draw(st.sampled_from(counted_columns(drugtree)))
    table = drugtree.tables[name]
    values = table.schema.row_as_dict(
        data.draw(st.sampled_from(list(table.scan_rows()))))
    choices = values_of(table, column)
    if table.schema.column(column).nullable:
        choices.append(None)
    values[column] = data.draw(st.sampled_from(choices))
    table.insert(values)


def fresh_copy(world):
    """The integrated world's rows in a new overlay (two-key chunks)."""
    drugtree = DrugTree(world.tree)
    drugtree.load_rows({name: list(table.scan())
                        for name, table in world.tables.items()})
    drugtree.create_default_indexes()
    return drugtree


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_one_counted_predicate_is_counted_exactly(world, data):
    with mock.patch.object(SortedIndex, "CHUNK", SMALL_CHUNK):
        drugtree = fresh_copy(world)
        estimator = CardinalityEstimator(drugtree.tables)
        for _ in range(data.draw(st.integers(1, 8))):
            if data.draw(st.booleans()):
                insert_like(data, drugtree)
            name, column, ranged = data.draw(
                st.sampled_from(counted_columns(drugtree)))
            table = drugtree.tables[name]
            predicates = predicates_for(data, table, column, ranged)
            assert estimator.scan_rows(name, predicates) \
                == max(reference(table, predicates), MIN_ROWS), predicates


def test_the_naive_engine_counts_what_the_estimator_counts(dataset, world):
    naive = NaiveEngine(dataset.tree, dataset.registry)
    estimator = CardinalityEstimator(world.tables)
    columns = counted_columns(world)
    assert {("bindings", "potent"), ("ligands", "drug_like")} \
        <= {(name, column) for name, column, _ in columns}
    for name, column, ranged in columns:
        table = world.tables[name]
        held = values_of(table, column)
        middle = held[len(held) // 2]
        predicates = [(Comparison(column, "=", middle),),
                      (Comparison(column, "!=", middle),),
                      (Comparison(column, "in", (held[0], held[-1])),)]
        if ranged:
            predicates += [(Comparison(column, "<", middle),),
                           (Comparison(column, ">=", held[1]),
                            Comparison(column, "<=", middle))]
        for preds in predicates:
            answer = naive.execute(Query(
                aggregates=(AggregateSpec("count", "*"),),
                predicates=preds, from_tables=(name,)))
            count = answer.rows[0]["count_all"]
            assert estimator.scan_rows(name, preds) \
                == max(count, MIN_ROWS), (name, preds)


def test_a_column_nothing_counts_gets_the_default(world):
    estimator = CardinalityEstimator(world.tables)
    rows = world.tables["bindings"].row_count
    assert estimator.scan_rows(
        "bindings", (Comparison("activity_type", "=", "Ki"),)) \
        == rows * DEFAULT_SELECTIVITY


def test_columns_multiply_under_independence(world):
    estimator = CardinalityEstimator(world.tables)
    proteins = world.tables["proteins"]
    organism = Comparison("organism", "=",
                          values_of(proteins, "organism")[0])
    band = (Comparison("leaf_pre", ">=", 2), Comparison("leaf_pre", "<", 7))
    expected = (proteins.row_count * reference(proteins, (organism,))
                / proteins.row_count * reference(proteins, band)
                / proteins.row_count)
    assert estimator.scan_rows("proteins", (organism, *band)) \
        == pytest.approx(max(expected, MIN_ROWS))


def test_join_divides_by_the_larger_bucket_count(world):
    estimator = CardinalityEstimator(world.tables)
    ligands = {row[0] for row in world.tables["ligands"].scan_rows()}
    bound = {row[0] for row in world.tables["bindings"].scan_rows()}
    rows = estimator.join_rows(100.0, 16.0, "bindings", "ligands",
                               "ligand_id")
    assert rows == pytest.approx(100 * 16 / max(len(ligands), len(bound)))
    assert estimator.join_rows(0.0, 0.0, "bindings", "ligands",
                               "ligand_id") == MIN_ROWS


def test_an_empty_table_is_the_floor():
    table = Table("bindings", Schema([float_column("p_affinity")]))
    table.create_index(["p_affinity"], kind="sorted")
    estimator = CardinalityEstimator({"bindings": table})
    assert estimator.table_rows("bindings") == 0.0
    assert estimator.scan_rows(
        "bindings", (Comparison("p_affinity", ">=", 5.0),)) == MIN_ROWS


def hand_built(rows=400):
    """A table the counts below can be read off: ``organism`` cycles
    through eight values (NULL on every 40th row) under a hash index,
    ``p_affinity`` runs 4.0..8.95 in steps of 0.05 (NULL on every 50th
    row) under a sorted index, and ``potent`` has no index."""
    table = Table("bindings", Schema([
        string_column("organism", nullable=True),
        float_column("p_affinity", nullable=True),
        bool_column("potent"),
    ]))
    for i in range(rows):
        table.insert({
            "organism": None if i % 40 == 39 else f"org_{i % 8}",
            "p_affinity": None if i % 50 == 49 else 4.0 + (i % 100) / 20,
            "potent": i % 2 == 0,
        })
    table.create_index(["organism"], kind="hash")
    table.create_index(["p_affinity"], kind="sorted")
    return table, CardinalityEstimator({"bindings": table})


def exact(table, *predicates):
    return max(reference(table, predicates), MIN_ROWS)


class TestTableRows:
    def test_the_live_row_count(self):
        _, estimator = hand_built()
        assert estimator.table_rows("bindings") == 400.0

    def test_an_insert_reaches_the_next_count(self):
        table, estimator = hand_built()
        table.insert({"organism": "org_3", "p_affinity": 9.5,
                      "potent": True})
        assert estimator.table_rows("bindings") == 401.0
        assert estimator.scan_rows(
            "bindings", (Comparison("p_affinity", ">", 9.0),)) == 1.0


class TestEquality:
    def test_a_hash_bucket_is_counted_exactly(self):
        table, estimator = hand_built()
        org_3 = Comparison("organism", "=", "org_3")
        assert estimator.scan_rows("bindings", (org_3,)) \
            == exact(table, org_3) == 50.0

    def test_a_sorted_index_counts_equality(self):
        table, estimator = hand_built()
        predicate = Comparison("p_affinity", "=", 4.05)
        assert estimator.scan_rows("bindings", (predicate,)) \
            == exact(table, predicate) == 4.0

    def test_a_value_no_row_holds_is_the_floor(self):
        _, estimator = hand_built()
        assert estimator.scan_rows(
            "bindings", (Comparison("organism", "=", "org_99"),)) \
            == MIN_ROWS

    def test_null_matches_nothing(self):
        _, estimator = hand_built()
        for column in ("organism", "p_affinity"):
            assert estimator.scan_rows(
                "bindings", (Comparison(column, "=", None),)) == MIN_ROWS

    def test_in_sums_its_members(self):
        table, estimator = hand_built()
        predicate = Comparison("organism", "in", ("org_1", "org_2",
                                                  "org_99"))
        assert estimator.scan_rows("bindings", (predicate,)) \
            == exact(table, predicate) == 100.0

    def test_in_counts_a_repeated_member_once(self):
        _, estimator = hand_built()
        once = Comparison("organism", "in", ("org_1",))
        twice = Comparison("organism", "in", ("org_1", "org_1"))
        assert estimator.scan_rows("bindings", (twice,)) \
            == estimator.scan_rows("bindings", (once,)) == 50.0

    def test_in_on_a_sorted_index(self):
        table, estimator = hand_built()
        predicate = Comparison("p_affinity", "in", (4.0, 8.9, None))
        assert estimator.scan_rows("bindings", (predicate,)) \
            == exact(table, predicate) == 8.0

    @pytest.mark.parametrize("column, value", [("organism", "org_3"),
                                               ("p_affinity", 4.05)])
    def test_inequality_leaves_out_the_nulls(self, column, value):
        table, estimator = hand_built()
        equal = estimator.scan_rows(
            "bindings", (Comparison(column, "=", value),))
        unequal = estimator.scan_rows(
            "bindings", (Comparison(column, "!=", value),))
        at = table.schema.index_of(column)
        nulls = sum(row[at] is None for row in table.scan_rows())
        assert nulls > 0
        assert unequal == exact(table, Comparison(column, "!=", value))
        assert equal + unequal + nulls == table.row_count


class TestRanges:
    @pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
    def test_one_bound_is_counted_exactly(self, op):
        table, estimator = hand_built()
        predicate = Comparison("p_affinity", op, 6.5)
        assert estimator.scan_rows("bindings", (predicate,)) \
            == exact(table, predicate)

    def test_a_band_is_counted_once_not_squared(self):
        table, estimator = hand_built()
        band = (Comparison("p_affinity", ">=", 5.0),
                Comparison("p_affinity", "<", 6.0))
        assert estimator.scan_rows("bindings", band) \
            == exact(table, *band) == 80.0

    def test_the_tightest_bounds_win(self):
        table, estimator = hand_built()
        bounds = (Comparison("p_affinity", ">", 4.5),
                  Comparison("p_affinity", ">=", 6.0),
                  Comparison("p_affinity", "<", 8.0),
                  Comparison("p_affinity", "<=", 7.0))
        assert estimator.scan_rows("bindings", bounds) \
            == exact(table, *bounds)

    def test_an_empty_band_is_the_floor(self):
        _, estimator = hand_built()
        assert estimator.scan_rows("bindings", (
            Comparison("p_affinity", ">=", 7.0),
            Comparison("p_affinity", "<", 5.0))) == MIN_ROWS

    def test_a_hash_index_cannot_count_a_range(self):
        _, estimator = hand_built()
        assert estimator.scan_rows(
            "bindings", (Comparison("organism", ">", "org_3"),)) \
            == 400 * DEFAULT_SELECTIVITY


class TestNoIndex:
    def test_each_unindexed_predicate_multiplies_the_default(self):
        _, estimator = hand_built()
        potent = Comparison("potent", "=", True)
        assert estimator.scan_rows("bindings", (potent,)) \
            == pytest.approx(400 * DEFAULT_SELECTIVITY)
        assert estimator.scan_rows(
            "bindings", (potent, Comparison("potent", "!=", False))) \
            == pytest.approx(400 * DEFAULT_SELECTIVITY ** 2)

    def test_an_unindexed_predicate_scales_an_exact_count(self):
        table, estimator = hand_built()
        org_3 = Comparison("organism", "=", "org_3")
        assert estimator.scan_rows(
            "bindings", (org_3, Comparison("potent", "=", True))) \
            == pytest.approx(exact(table, org_3) * DEFAULT_SELECTIVITY)


class TestValueCounts:
    def test_equality_is_counted_exactly(self):
        table, estimator = hand_built()
        table.keep_value_counts("potent")
        for predicate in (Comparison("potent", "=", True),
                          Comparison("potent", "!=", True),
                          Comparison("potent", "in", (True, False))):
            assert estimator.scan_rows("bindings", (predicate,)) \
                == exact(table, predicate)

    def test_an_insert_reaches_the_next_count(self):
        table, estimator = hand_built()
        table.keep_value_counts("potent")
        table.insert({"organism": "org_3", "p_affinity": 9.5,
                      "potent": True})
        assert estimator.scan_rows(
            "bindings", (Comparison("potent", "=", True),)) == 201.0

    def test_inequality_leaves_out_the_nulls(self):
        table = Table("t", Schema([bool_column("potent", nullable=True)]))
        for potent in (True, False, None, True, None):
            table.insert({"potent": potent})
        table.keep_value_counts("potent")
        estimator = CardinalityEstimator({"t": table})
        assert estimator.scan_rows(
            "t", (Comparison("potent", "!=", True),)) == 1.0
        assert estimator.scan_rows(
            "t", (Comparison("potent", "=", None),)) == MIN_ROWS

    def test_a_range_is_not_counted(self):
        table, estimator = hand_built()
        table.keep_value_counts("potent")
        assert estimator.scan_rows(
            "bindings", (Comparison("potent", ">", False),)) \
            == 400 * DEFAULT_SELECTIVITY


class TestJoins:
    def test_join_divides_by_the_bucket_count(self):
        _, estimator = hand_built()
        assert estimator.join_rows(400.0, 8.0, "bindings", "bindings",
                                   "organism") == pytest.approx(400.0)

    def test_the_null_bucket_is_no_distinct_key(self):
        # NULL never joins, so the rows holding it are no key value.
        table, estimator = hand_built()
        assert table.index_on("organism").lookup(None)
        assert estimator.join_rows(9.0, 8.0, "bindings", "bindings",
                                   "organism") == 9.0

    def test_a_key_with_a_sorted_index_too_counts_its_hash_buckets(self):
        table, estimator = hand_built()
        table.create_index(["p_affinity"], kind="hash")
        assert isinstance(table.index_on("p_affinity"), SortedIndex)
        keys = {row[1] for row in table.scan_rows()} - {None}
        assert estimator.join_rows(400.0, 4.0, "bindings", "bindings",
                                   "p_affinity") \
            == pytest.approx(400 * 4 / len(keys))

    def test_a_key_without_a_hash_index_divides_by_one(self):
        _, estimator = hand_built()
        for key in ("p_affinity", "potent"):
            assert estimator.join_rows(40.0, 3.0, "bindings", "bindings",
                                       key) == 120.0

    def test_an_empty_join_is_the_floor(self):
        _, estimator = hand_built()
        assert estimator.join_rows(0.0, 8.0, "bindings", "bindings",
                                   "organism") == MIN_ROWS


def bound(op, value):
    return Comparison("p_affinity", op, value)


@pytest.mark.parametrize("bounds, interval", [
    ((), (None, None, True, True)),
    ((bound(">", 1.0),), (1.0, None, False, True)),
    ((bound("<=", 2.0),), (None, 2.0, True, True)),
    ((bound(">=", 1.0), bound(">", 3.0)), (3.0, None, False, True)),
    ((bound(">", 3.0), bound(">=", 1.0)), (3.0, None, False, True)),
    ((bound("<", 5.0), bound("<=", 4.0)), (None, 4.0, True, True)),
    ((bound(">=", 1.0), bound("<", 5.0)), (1.0, 5.0, True, False)),
    # Two bounds at one value: the strict one wins, in either order.
    ((bound(">=", 2.0), bound(">", 2.0)), (2.0, None, False, True)),
    ((bound(">", 2.0), bound(">=", 2.0)), (2.0, None, False, True)),
    ((bound("<=", 2.0), bound("<", 2.0)), (None, 2.0, True, False)),
    ((bound("<", 2.0), bound("<=", 2.0)), (None, 2.0, True, False)),
    # ``=`` bounds both ends, and meets a range like any other bound.
    ((bound("=", 3.0), bound("<", 5.0)), (3.0, 3.0, True, True)),
    ((bound("<", 3.0), bound("=", 3.0)), (3.0, 3.0, True, False)),
    # ``IN`` bounds by its hull; ``!=`` bounds nothing.
    ((bound("in", (4.0, 1.0, 2.5)),), (1.0, 4.0, True, True)),
    ((bound("in", (4.0, 1.0)), bound(">", 1.0)), (1.0, 4.0, False, True)),
    ((bound("!=", 3.0), bound("<=", 6.0)), (None, 6.0, True, True)),
])
def test_band_keeps_the_tightest_interval(bounds, interval):
    assert Band.of(bounds) == interval


@pytest.mark.parametrize("bounds", [
    (bound(">", 1.0), Comparison("p_affinity", ">", "a")),
    (Comparison("p_affinity", "in", (1.0, "a")),),
])
def test_band_of_literals_that_do_not_compare_raises(bounds):
    with pytest.raises(TypeError):
        Band.of(bounds)


@pytest.mark.parametrize("bounds, empty", [
    ((), False),
    ((bound(">", 2.0), bound("<", 2.0)), True),
    ((bound(">=", 2.0), bound("<=", 2.0)), False),
    ((bound(">=", 2.0), bound("<", 2.0)), True),
    ((bound("=", 2.0), bound(">", 2.0)), True),
    ((bound("in", (1.0, 2.0)), bound(">", 5.0)), True),
    ((bound(">", 3.0), bound("<", 1.0)), True),
])
def test_band_is_empty_when_no_value_fits(bounds, empty):
    assert Band.of(bounds).empty is empty


@pytest.mark.parametrize("outer, inner, contained", [
    (Band(), Band(1.0, 2.0), True),
    (Band(1.0, 2.0), Band(), False),
    (Band(1.0), Band(1.0, include_low=False), True),
    (Band(1.0, include_low=False), Band(1.0), False),
    (Band(None, 5.0), Band(None, 4.0), True),
    (Band(None, 5.0, include_high=False), Band(None, 5.0), False),
    (Band(1.0, 5.0), Band(2.0, 6.0), False),
])
def test_band_containment(outer, inner, contained):
    assert outer.contains(inner) is contained


@pytest.mark.parametrize("band, integers", [
    (Band(None, 11.5, include_high=False), (0, 12)),
    (Band(None, 11.5), (0, 12)),
    (Band(None, 11, include_high=False), (0, 11)),
    (Band(None, 11), (0, 12)),
    (Band(10.5, include_low=False), (11, 40)),
    (Band(10, include_low=False), (11, 40)),
    (Band(-0.5), (0, 40)),
    (Band(2.5, 2.5), (3, 3)),
    (Band(float("-inf"), float("inf")), (0, 40)),
    (Band(float("inf")), (40, 40)),
    (Band(50, 60), (40, 40)),
    (Band(None, -3), (0, 0)),
])
def test_band_integers_round_inward(band, integers):
    assert band.integers(0, 40) == integers


@pytest.mark.parametrize("band, text", [
    (Band(), "[, ]"),
    (Band(0, 33, include_high=False), "[0, 33)"),
    (Band(6.0), "[6.0, ]"),
    (Band(None, 8.0, include_low=False), "(, 8.0]"),
    (Band("a", "b"), "['a', 'b']"),
])
def test_band_renders_as_explain_does(band, text):
    assert str(band) == text
