"""Typed mirrors in the vectorized engine: masks and folds ≡ the lists.

A scan compares a mirrored column with a literal as one numpy mask,
and an aggregate folds a scan batch's mirrored slice. Both must give
exactly what the row engine gives: the same rows in the same order,
the same counters, and aggregates equal by ``==`` *and* by ``repr``
(a float that differs in its last bit, ``-0.0`` for ``0.0`` or ``3.0``
for ``3`` all fail the second).
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.query import vectorized
from repro.core.query.ast import AggregateSpec, Band, Comparison
from repro.core.query.logical import LogicalScan
from repro.core.query.physical import (
    ExecCounters,
    HashAggregateOp,
    ScanOp,
    _AggState,
)
from repro.core.query.vectorized import (
    VecHashAggregateOp,
    VecScanOp,
    fold_typed,
)
from repro.storage import (
    Schema,
    Table,
    bool_column,
    float_column,
    int_column,
    string_column,
)

BIG = 2 ** 53

# -- fold parity -------------------------------------------------------------

#: Overlay column names (the query layer checks them); one column of
#: each mirrored kind, plain and nullable.
FOLD_SCHEMA = Schema([
    string_column("activity_type"),
    float_column("p_affinity"),
    int_column("leaf_pre"),
    bool_column("potent"),
    float_column("resolution", nullable=True),
    int_column("hba", nullable=True),
    bool_column("drug_like", nullable=True),
])
FOLDED = ("p_affinity", "leaf_pre", "potent", "resolution", "hba",
          "drug_like")
AGGREGATES = (AggregateSpec("count", "*"),) + tuple(
    AggregateSpec(func, column)
    for column in FOLDED
    for func in ("count", "sum", "mean", "min", "max")
)

SPECIAL_FLOATS = [0.0, -0.0, 1.0, -1.0, 0.1, 1e16, -1e16, 1e-300,
                  float("inf"), float("-inf"), 2.0 ** 53, 3.5]
floats = st.one_of(st.sampled_from(SPECIAL_FLOATS),
                   st.floats(allow_nan=False, width=64))
ints = st.one_of(st.sampled_from([0, 1, -1, 3, BIG - 1, -(BIG - 1)]),
                 st.integers(-(BIG - 1), BIG - 1))
#: FLOAT cells as an unlogged ``append_rows`` may deliver them: exact
#: ints too.
float_cells = st.one_of(floats, ints)

row_strategy = st.fixed_dictionaries({
    "activity_type": st.sampled_from(["IC50", "Ki", "Kd"]),
    "p_affinity": float_cells,
    "leaf_pre": ints,
    "potent": st.booleans(),
    "resolution": st.none() | float_cells,
    "hba": st.none() | ints,
    "drug_like": st.none() | st.booleans(),
})

#: Values that refuse a mirror: (column, value, through append_rows).
POISONS = {
    "nan": ("p_affinity", float("nan")),
    "nullable_nan": ("resolution", float("nan")),
    "big_int": ("leaf_pre", BIG),
    "big_negative_int": ("hba", -BIG),
    "bool_in_int": ("leaf_pre", True),
}


def fold_table(rows, restore, poison):
    table = Table("fold", FOLD_SCHEMA)
    cells = [tuple(row[c] for c in FOLD_SCHEMA.column_names)
             for row in rows]
    if poison is not None and cells:
        column, value = POISONS[poison]
        at = FOLD_SCHEMA.index_of(column)
        target = len(cells) // 2
        cells[target] = cells[target][:at] + (value,) + cells[target][at + 1:]
    if restore or poison is not None:
        # append_rows bypasses validation: exact ints stay ints in the
        # FLOAT columns, and a poison lands as it is.
        table.append_rows(list(enumerate(cells)), log=False)
    else:
        for row in rows:
            table.insert(row)
    return table


def run_aggregate(table, group_by, batch_size=None):
    counters = ExecCounters()
    node = LogicalScan(table.name, "seq")
    if batch_size is None:
        op = HashAggregateOp(counters, ScanOp(counters, table, node),
                             AGGREGATES, group_by)
        return list(op.rows())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vectorized, "BATCH_SIZE", batch_size)
        scan = VecScanOp(counters, table, node, None)
        op = VecHashAggregateOp(counters, scan, AGGREGATES, group_by)
        return list(op.rows())


def assert_same_folds(table):
    for group_by in (None, "activity_type", "potent"):
        expected = run_aggregate(table, group_by)
        for batch_size in (1, 7, 1024):
            got = run_aggregate(table, group_by, batch_size)
            assert repr(got) == repr(expected), (group_by, batch_size)
            if "nan" not in repr(expected):  # NaN is never == NaN
                assert got == expected, (group_by, batch_size)


class TestFoldParity:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(rows=st.lists(row_strategy, max_size=40),
           restore=st.booleans(),
           poison=st.none() | st.sampled_from(sorted(POISONS)))
    # Mixed magnitudes: a pairwise sum rounds differently from a
    # sequential one.
    @example(rows=[{"activity_type": "Ki", "p_affinity": v,
                    "leaf_pre": 1, "potent": True, "resolution": v,
                    "hba": None, "drug_like": None}
                   for v in [1e16, 1.0, -1e16, 1.0, 3.5, 1e16, 0.1] * 3],
             restore=False, poison=None)
    # A zero of each sign, in both orders, and exact ints beside floats.
    @example(rows=[{"activity_type": "Ki", "p_affinity": v,
                    "leaf_pre": 0, "potent": False, "resolution": v,
                    "hba": 0, "drug_like": False}
                   for v in [0.0, -0.0, 3, 3.0, -0.0, 0.0, 3.0, 3]],
             restore=True, poison=None)
    @example(rows=[{"activity_type": "Kd", "p_affinity": v,
                    "leaf_pre": 2, "potent": True, "resolution": v,
                    "hba": 5, "drug_like": True}
                   for v in [7.0, 1.0, 2.0, 5.0]],
             restore=False, poison="nan")
    def test_vectorized_aggregates_equal_the_row_engine(self, rows,
                                                        restore, poison):
        table = fold_table(rows, restore, poison)
        store = table.column_store()
        for column in FOLDED:
            refused = poison is not None and rows and \
                POISONS[poison][0] == column
            assert (store.typed(column) is None) == bool(refused), column
        assert_same_folds(table)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(values=st.lists(st.none() | float_cells, max_size=60),
           kind=st.sampled_from(["float", "int", "bool"]),
           sizes=st.sampled_from([1, 2, 7, 1024]))
    def test_fold_typed_equals_fold_many_across_slices(self, values,
                                                       kind, sizes):
        if kind == "int":
            values = [None if v is None else int(v) if v == v and
                      abs(v) < BIG else 1 for v in values]
        elif kind == "bool":
            values = [None if v is None else bool(v) for v in values]
        dtype = {"float": np.float64, "int": np.int64,
                 "bool": np.bool_}[kind]
        data = np.array([0 if v is None else v for v in values],
                        dtype=dtype)
        valid = np.array([v is not None for v in values], dtype=np.bool_)
        typed, reference = _AggState(), _AggState()
        # Slices of odd sizes carry the running total, extremes and
        # count across calls; empty and one-element slices included.
        starts = list(range(0, len(values), sizes)) or [0]
        with np.errstate(over="ignore", invalid="ignore"):  # as the op
            for start in starts:
                chunk = slice(start, start + sizes)
                reference.fold_many(values[chunk])
                fold_typed(typed, values[chunk], data[chunk], valid[chunk])
                fold_typed(typed, [], data[:0], valid[:0])
        for func in ("count", "sum", "mean", "min", "max"):
            got, expected = typed.result(func), reference.result(func)
            assert repr(got) == repr(expected), func
            if expected == expected:  # inf + -inf is NaN, never ==
                assert got == expected, func

    @pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
    def test_equal_zeros_keep_the_first_seen(self, first, second):
        values = [first, 1.0, second]
        state = _AggState()
        fold_typed(state, values, np.array(values), None)
        assert repr(state.minimum) == repr(first)
        state = _AggState()
        fold_typed(state, [-1.0, first], np.array([-1.0, first]), None)
        fold_typed(state, [second, -2.0], np.array([second, -2.0]), None)
        assert repr(state.maximum) == repr(first)

    def test_empty_input_still_answers_one_scalar_row(self):
        table = fold_table([], False, None)
        assert_same_folds(table)
        got = run_aggregate(table, None, 7)
        assert got[0]["count_all"] == 0 and got[0]["sum_p_affinity"] is None


# -- mask parity grid ------------------------------------------------------

GRID_SCHEMA = Schema([
    string_column("ligand_id"),
    string_column("protein_id"),
    float_column("p_affinity"),
    int_column("leaf_pre"),
    bool_column("potent"),
    float_column("resolution", nullable=True),
])
#: FLOAT values around every literal below, both zeros, both infinities
#: and float64's last exact integers, where a rounded literal compares
#: differently from the exact one.
GRID_FLOATS = [7.0, 7.5, 6.5, 0.0, -0.0, 1.5, float("inf"),
               float("-inf"), float(BIG), float(BIG + 2), -3.25, 7.0]


def grid_table():
    table = Table("grid", GRID_SCHEMA)
    for k in range(60):
        table.insert({
            "ligand_id": f"L{k % 13:02d}",
            "protein_id": f"P{k % 5}",
            "p_affinity": GRID_FLOATS[k % len(GRID_FLOATS)],
            "leaf_pre": (k * 7) % 10,
            "potent": k % 3 == 0,
            "resolution": (None if k % 4 == 0
                           else GRID_FLOATS[(k + 3) % len(GRID_FLOATS)]),
        })
    table.create_index(["ligand_id"], kind="hash")
    table.create_index(["leaf_pre"], kind="hash")
    table.create_index(["p_affinity"], kind="sorted")
    return table


#: (literal kind, predicate column, literal, answered by a mask?)
LITERALS = [
    ("int_on_float", "p_affinity", 7, True),
    ("float_on_int", "leaf_pre", 6.5, True),
    ("whole_float_on_int", "leaf_pre", 7.0, True),
    ("bool_on_bool", "potent", True, True),
    ("float_on_nullable_float", "resolution", 1.5, True),
    ("int_past_2_53_on_float", "p_affinity", BIG + 1, False),
    ("int_past_2_53_on_int", "leaf_pre", BIG + 1, False),
]
OPS = ("=", "!=", "<", "<=", ">", ">=")
KEYS = frozenset({"L01", "L04", "L07", "L12", "P1", "P3"})


def grid_scan(shape, table, residual):
    """The ``LogicalScan`` of one scan shape over the grid table."""
    if shape == "seq":
        return LogicalScan(table.name, "seq", residual=residual)
    if shape == "index_eq":
        return LogicalScan(table.name, "index_eq", access_column="leaf_pre",
                           eq_value=7, residual=residual)
    if shape == "index_range":
        return LogicalScan(table.name, "index_range",
                           access_column="p_affinity",
                           band=Band(-0.0, 1e300, include_low=True,
                                     include_high=False),
                           residual=residual)
    column = "ligand_id" if shape == "key_set_indexed" else "protein_id"
    return LogicalScan(table.name, "key_set", access_column=column,
                       key_set=KEYS, residual=residual)


def grid_ops(shape, table, residual):
    """(row operator, vectorized operator) of one scan shape."""
    node = grid_scan(shape, table, residual)
    return (ScanOp(ExecCounters(), table, node),
            VecScanOp(ExecCounters(), table, node, None))


SHAPES = ("seq", "index_eq", "index_range", "key_set_indexed",
          "key_set_unindexed")


class TestMaskParityGrid:
    @pytest.fixture(scope="class")
    def table(self):
        return grid_table()

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("op", OPS)
    @pytest.mark.parametrize("kind, column, literal, masked", LITERALS,
                             ids=[entry[0] for entry in LITERALS])
    def test_rows_and_counters_equal_the_row_engine(
            self, table, shape, op, kind, column, literal, masked,
            monkeypatch):
        monkeypatch.setattr(vectorized, "BATCH_SIZE", 4)
        residual = (Comparison(column, op, literal),)
        row_op, vec_op = grid_ops(shape, table, residual)
        # The grid's point: these literals take the mask, the others
        # keep the closure.
        assert [t[2] is not None for t in vec_op.tests][-1] is masked
        expected = list(row_op.rows())
        got = list(vec_op.rows())
        assert got == expected
        assert repr(got) == repr(expected)
        for key in ("rows_scanned", "rows_emitted", "index_probes"):
            assert getattr(vec_op.counters, key) == \
                getattr(row_op.counters, key), key
        # Batch boundaries are those of the closure-only evaluation.
        _, closures = grid_ops(shape, table, residual)
        closures.tests = tuple((name, test, None, value)
                               for name, test, _, value in closures.tests)
        assert list(closures.rows()) == expected
        assert closures.counters.batches_emitted == \
            vec_op.counters.batches_emitted

    @pytest.mark.parametrize("shape", SHAPES)
    def test_two_masks_and_a_closure_in_one_scan(self, table, shape,
                                                 monkeypatch):
        monkeypatch.setattr(vectorized, "BATCH_SIZE", 3)
        residual = (Comparison("p_affinity", ">=", 0),
                    Comparison("ligand_id", "!=", "L04"),
                    Comparison("resolution", "<", 7.25))
        row_op, vec_op = grid_ops(shape, table, residual)
        assert list(vec_op.rows()) == list(row_op.rows())
        assert vec_op.counters.rows_emitted == row_op.counters.rows_emitted

    def test_every_shape_and_literal_is_exercised(self, table):
        """The grid is not vacuous: each predicate keeps some rows and
        drops others on a full scan."""
        for (_, column, literal, _), op in itertools.product(LITERALS,
                                                             ("<", ">=")):
            if literal == BIG + 1:
                continue
            kept = list(ScanOp(ExecCounters(), table, grid_scan(
                "seq", table, (Comparison(column, op, literal),))).rows())
            assert 0 < len(kept) < len(table), (column, op, literal)
