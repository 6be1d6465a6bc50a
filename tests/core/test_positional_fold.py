"""An aggregate over a scan folds the store at the scan's positions.

The batch engine lowers an aggregate whose input is a scan to a
positional fold: the scan gathers no column, and the aggregate reads
each folded column's typed mirror (or its list, where it has none) and
a STRING group key's coded mirror at the positions the scan selected.
Its answers must equal, by ``==`` and by ``repr``, those of the
per-batch fold (the same aggregate over gathered batches) and of the
row engine, and, on a generated world, those of :class:`NaiveEngine`.

The draws aim at what a positional fold could get wrong: wide bands
(one mask over the mirror) and narrow ones (index probes), a closure
residual that turns the positions into a list, NULLs in the group key
and in the folded columns, ``-0.0``/``0.0`` and ``3``/``3.0`` ties, an
INT column whose mirror an unlogged bool refused, and rows appended
after the coded mirror was built. Three planted mutants each fail it.
"""

from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import EngineConfig, NaiveEngine, QueryEngine
from repro.core.query import vectorized
from repro.core.query.ast import AggregateSpec, Band, Comparison
from repro.core.query.logical import LogicalScan
from repro.core.query.physical import ExecCounters, HashAggregateOp, ScanOp
from repro.core.query.vectorized import VecHashAggregateOp, VecScanOp
from repro.storage import (
    Schema,
    Table,
    bool_column,
    float_column,
    int_column,
    string_column,
)
from repro.storage.columnar import _Coder
from repro.workloads import DatasetConfig, build_dataset
from tests.storage.oracles import with_planted_bug

INF = float("inf")
#: Overlay column names (the query layer checks them): a nullable
#: STRING key, and a folded column of each mirrored kind.
SCHEMA = Schema([
    string_column("organism", nullable=True),
    float_column("p_affinity"),
    float_column("resolution", nullable=True),
    int_column("leaf_pre"),
    bool_column("potent"),
])
FOLDED = ("p_affinity", "resolution", "leaf_pre", "potent")
FUNCS = ("count", "sum", "mean", "min", "max")
AGGREGATES = (AggregateSpec("count", "*"),) + tuple(
    AggregateSpec(func, column) for column in FOLDED for func in FUNCS
    # sum/mean of a BOOL column is DTQL004.
    if column != "potent" or func not in ("sum", "mean"))
#: First seen out of sorted order, and NULL.
KEYS = ("Mus musculus", "Homo sapiens", "Danio rerio", None)

floats = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 3.5, 1e16, -1e16, INF]),
    st.floats(-1e6, 1e6, allow_nan=False))
#: FLOAT cells as an unlogged ``append_rows`` delivers them: exact ints
#: too, so ``3`` and ``3.0`` can tie.
float_cells = st.one_of(floats, st.integers(-3, 3))
rows = st.lists(st.tuples(
    st.sampled_from(KEYS), float_cells, st.none() | float_cells,
    st.integers(-5, 5), st.booleans()), max_size=40)
#: A band end: a stored ``p_affinity`` by rank, or open.
ends = st.none() | st.integers(0, 1_000)
spec = st.fixed_dictionaries({
    "rows": rows,
    "cut": st.integers(0, 40),
    "bool_in_int": st.booleans(),
    "shape": st.sampled_from(("seq", "index_range")),
    "low": ends,
    "high": ends,
    "residual": st.booleans(),
    "share": st.sampled_from((0.0, INF)),  # every band masks / none does
    "aggregates": st.lists(st.sampled_from(AGGREGATES), min_size=1,
                           max_size=4, unique=True).map(tuple),
    "group_by": st.sampled_from((None, "organism", "potent")),
})


def example_spec(values, keys=KEYS[:2], **overrides):
    """A spec over one ``p_affinity`` value per row, keys cycling."""
    drawn = {
        "rows": [(keys[i % len(keys)], value, value, i, i % 2 == 0)
                 for i, value in enumerate(values)],
        "cut": len(values), "bool_in_int": False, "shape": "seq",
        "low": None, "high": None, "residual": False, "share": 0.0,
        "aggregates": AGGREGATES, "group_by": None}
    drawn.update(overrides)
    return drawn


def scan_node(table: Table, drawn) -> LogicalScan:
    residual = (Comparison("organism", "!=", "Danio rerio"),) \
        if drawn["residual"] else ()
    if drawn["shape"] == "seq":
        return LogicalScan(table.name, "seq", residual=residual)
    stored = sorted(row[1] for row in table.scan_rows())
    low, high = (None if rank is None or not stored
                 else stored[rank % len(stored)]
                 for rank in (drawn["low"], drawn["high"]))
    return LogicalScan(table.name, "index_range", access_column="p_affinity",
                       band=Band(low, high, include_high=False),
                       residual=residual)


def answers(table: Table, drawn) -> dict[str, tuple]:
    """``name -> (rows, counters)`` of the row engine, the per-batch
    fold and the positional fold over one scan."""
    node = scan_node(table, drawn)
    args = drawn["aggregates"], drawn["group_by"]
    out = {}
    counters = ExecCounters()
    row = HashAggregateOp(counters, ScanOp(counters, table, node), *args)
    out["row"] = list(row.rows()), counters
    for name, columns, positional in (("batch", None, False),
                                      ("positional", (), True)):
        counters = ExecCounters()
        scan = VecScanOp(counters, table, node, columns)
        op = VecHashAggregateOp(counters, scan, *args, positional)
        out[name] = list(op.rows()), counters
    return out


def check_answers(table: Table, drawn) -> None:
    with mock.patch.object(vectorized, "RANGE_MASK_SHARE", drawn["share"]):
        got = answers(table, drawn)
    expected, reference = got.pop("row")
    for name, (rows_got, counters) in got.items():
        assert repr(rows_got) == repr(expected), name
        if "nan" not in repr(expected):  # inf + -inf is NaN, never ==
            assert rows_got == expected, name
        for key in ("rows_scanned", "rows_emitted", "index_probes"):
            assert getattr(counters, key) == getattr(reference, key), \
                (name, key)


def check_fold_parity() -> None:
    """Run the property (fresh tables each example)."""

    @settings(max_examples=120, deadline=None, database=None,
              derandomize=True, report_multiple_bugs=False,
              suppress_health_check=[HealthCheck.too_slow])
    # Ones after 1e16: each is lost in a sequential sum (the row
    # fold's), not in a pairwise one.
    @example(example_spec([1e16] + [1.0] * 15))
    # Equal zeros: the first one seen is the maximum.
    @example(example_spec([0.0, -1.0, -0.0, -2.0]))
    # Keys first seen out of sorted order, coded in one build.
    @example(example_spec([1.0, 2.0, 3.0], group_by="organism"))
    @given(spec)
    def agree(drawn):
        table = Table("fold", SCHEMA)
        cells = list(drawn["rows"])
        if drawn["bool_in_int"] and cells:
            middle = len(cells) // 2
            cells[middle] = cells[middle][:3] + (True,) + cells[middle][4:]
        table.create_index(["p_affinity"], kind="sorted")
        cut = min(drawn["cut"], len(cells))
        # append_rows skips validation: ints stay ints in the FLOAT
        # columns, and the bool lands in the INT column.
        table.append_rows(list(enumerate(cells[:cut])), log=False)
        check_answers(table, drawn)  # builds the coded mirror
        table.append_rows(list(enumerate(cells[cut:], cut)), log=False)
        check_answers(table, drawn)  # extends it
        store = table.column_store()
        assert (store.typed("leaf_pre") is None) == (
            drawn["bool_in_int"] and bool(cells))
        assert store.verify_against_rows()

    agree()


def test_positional_fold_equals_the_batch_fold_and_the_row_engine():
    check_fold_parity()


@pytest.mark.parametrize("owner, method, bugs", [
    # The sum adds pairwise (np.add.reduce), not in scan order.
    (vectorized, "fold_typed", (("float(np.add.accumulate(",
                                 "float(np.add.reduce("),
                                (")))[-1])", "))))"))),
    # The maximum is the last of equal values, not the first.
    (vectorized, "fold_typed", (("int(np.argmax(data))",
                                 "len(data) - 1 - "
                                 "int(np.argmax(data[::-1]))"),)),
    # Codes follow the sorted values, the value list first-seen order.
    (_Coder, "extend", (("lookup.update(zip(fresh,",
                         "lookup.update(zip(sorted(fresh, key=repr),"),)),
], ids=["pairwise_sum", "last_extreme", "sorted_codes"])
def test_planted_bug_in_the_fold_is_caught(owner, method, bugs):
    planted = with_planted_bug(getattr(owner, method), *bugs)
    with mock.patch.object(owner, method, planted), \
            pytest.raises(AssertionError):
        check_fold_parity()


# -- against the naive engine ------------------------------------------------

WORLD = DatasetConfig(n_leaves=24, n_ligands=40, seed=5)
#: No BOOL column: sum/mean of one is DTQL004.
WORLD_FOLDED = ("p_affinity", "value_nm", "leaf_pre")


@pytest.fixture(scope="module")
def world():
    dataset = build_dataset(WORLD)
    return dataset, dataset.drugtree()


world_queries = st.tuples(
    st.lists(st.tuples(st.sampled_from(FUNCS),
                       st.sampled_from(WORLD_FOLDED)),
             min_size=1, max_size=3, unique=True),
    st.booleans(),                                 # GROUP BY activity_type
    st.sampled_from((4.0, 5.5, 6.58, 8.0, 9.0)),   # p_affinity >= low
    st.none() | st.sampled_from((6.0, 7.5, 9.5)),  # p_affinity < high
)


@pytest.mark.parametrize("share", [0.0, INF], ids=["mask", "index"])
def test_aggregates_over_a_scan_answer_as_the_naive_engine(
        world, share, monkeypatch):
    monkeypatch.setattr(vectorized, "RANGE_MASK_SHARE", share)
    dataset, drugtree = world
    naive = NaiveEngine(dataset.tree, dataset.registry)
    engine = QueryEngine(drugtree, EngineConfig(use_semantic_cache=False))

    @settings(max_examples=30, deadline=None, database=None,
              derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(world_queries)
    def agree(drawn):
        folds, grouped, low, high = drawn
        select = ", ".join(f"{func}({column})" for func, column in folds)
        where = f"p_affinity >= {low}" + (
            "" if high is None else f" AND p_affinity < {high}")
        dtql = (f"SELECT {'activity_type, ' if grouped else ''}count(*), "
                f"{select} FROM bindings WHERE {where}"
                + (" GROUP BY activity_type" if grouped else ""))
        assert engine.execute(dtql).rows == naive.execute(dtql).rows, dtql

    agree()
