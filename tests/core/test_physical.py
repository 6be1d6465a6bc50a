"""Direct unit tests for the physical operators."""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query.ast import AggregateSpec, Comparison, OrderBy
from repro.core.query.logical import LogicalScan
from repro.core.query.physical import (
    ExecCounters,
    FilterOp,
    HashAggregateOp,
    HashJoinOp,
    LimitOp,
    ProjectOp,
    ScanOp,
    SortOp,
    TopKOp,
)
from repro.errors import QueryError
from repro.storage import Schema, Table, float_column, string_column


def _table(rows):
    schema = Schema([
        string_column("ligand_id"),
        float_column("p_affinity", nullable=True),
    ])
    table = Table("t", schema)
    for ligand_id, value in rows:
        table.insert({"ligand_id": ligand_id, "p_affinity": value})
    return table


def _static(rows):
    """A row source: fresh copies of *rows* on every ``rows()`` call."""
    return SimpleNamespace(rows=lambda: (dict(row) for row in rows))


def _frozen(rows):
    """Dict-order-insensitive canonical form for row-set comparison."""
    return sorted(tuple(sorted(row.items())) for row in rows)


class TestScansAndFilters:
    def test_seq_scan_emits_all(self):
        table = _table([("a", 1.0), ("b", 2.0)])
        op = ScanOp(ExecCounters(), table, LogicalScan("t", "seq"))
        assert len(list(op.rows())) == 2
        assert op.counters.rows_scanned == 2

    def test_seq_scan_residual(self):
        table = _table([("a", 1.0), ("b", 8.0)])
        op = ScanOp(ExecCounters(), table, LogicalScan(
            "t", "seq", residual=(Comparison("p_affinity", ">=", 5.0),)))
        assert [r["ligand_id"] for r in op.rows()] == ["b"]

    def test_filter_op(self):
        op = FilterOp(ExecCounters(), _static([
            {"p_affinity": 3.0}, {"p_affinity": 7.0},
        ]), (Comparison("p_affinity", ">", 5.0),))
        assert len(list(op.rows())) == 1

    def test_filter_null_never_matches(self):
        op = FilterOp(ExecCounters(), _static([
            {"p_affinity": None},
        ]), (Comparison("p_affinity", "!=", 5.0),))
        assert list(op.rows()) == []


class TestProjections:
    def test_project_keeps_requested(self):
        op = ProjectOp(ExecCounters(),
                       _static([{"a": 1, "b": 2}]), ("b",))
        assert list(op.rows()) == [{"b": 2}]

    def test_project_missing_column_raises(self):
        op = ProjectOp(ExecCounters(), _static([{"a": 1}]), ("zz",))
        with pytest.raises(QueryError):
            list(op.rows())


class TestJoins:
    LEFT = [{"k": "x", "l": 1}, {"k": "y", "l": 2}, {"k": "x", "l": 3}]
    RIGHT = [{"k": "x", "r": 10}, {"k": "z", "r": 30}]

    def test_hash_join(self):
        op = HashJoinOp(ExecCounters(), _static(self.LEFT),
                        _static(self.RIGHT), "k")
        rows = sorted(list(op.rows()), key=lambda r: r["l"])
        assert rows == [{"k": "x", "l": 1, "r": 10},
                        {"k": "x", "l": 3, "r": 10}]

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from("abc"),
                           st.integers(0, 9)), max_size=12),
        st.lists(st.tuples(st.sampled_from("abc"),
                           st.integers(0, 9)), max_size=12),
    )
    def test_property_hash_join_matches_every_pair(self, left, right):
        left_rows = [{"k": k, "l": v} for k, v in left]
        right_rows = [{"k": k, "r": v} for k, v in right]
        hash_out = _frozen(HashJoinOp(
            ExecCounters(), _static(left_rows), _static(right_rows), "k",
        ).rows())
        expected = _frozen(
            {"k": lk, "r": rv, "l": lv}
            for lk, lv in left for rk, rv in right if lk == rk
        )
        assert hash_out == expected


class TestAggregation:
    ROWS = [
        {"g": "a", "v": 1.0}, {"g": "a", "v": 3.0},
        {"g": "b", "v": 10.0}, {"g": "b", "v": None},
    ]

    def test_grouped_aggregates(self):
        op = HashAggregateOp(
            ExecCounters(), _static(self.ROWS),
            (AggregateSpec("count", "*"),),
            group_by="g",
        )
        rows = {row["g"]: row for row in op.rows()}
        assert rows["a"]["count_all"] == 2
        assert rows["b"]["count_all"] == 2

    def test_null_excluded_from_column_aggregates(self):
        spec = (AggregateSpec("count", "p_affinity"),
                AggregateSpec("mean", "p_affinity"))
        rows = [{"g": "b", "p_affinity": 10.0},
                {"g": "b", "p_affinity": None}]
        op = HashAggregateOp(ExecCounters(), _static(rows), spec,
                             group_by="g")
        out = list(op.rows())[0]
        assert out["count_p_affinity"] == 1
        assert out["mean_p_affinity"] == 10.0

    def test_scalar_aggregate_on_empty_input(self):
        op = HashAggregateOp(
            ExecCounters(), _static([]),
            (AggregateSpec("count", "*"),
             AggregateSpec("max", "p_affinity")),
        )
        out = list(op.rows())
        assert out == [{"count_all": 0, "max_p_affinity": None}]

    def test_grouped_aggregate_on_empty_input_has_no_rows(self):
        op = HashAggregateOp(
            ExecCounters(), _static([]),
            (AggregateSpec("count", "*"),), group_by="g",
        )
        assert list(op.rows()) == []


class TestOrderingOps:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.one_of(st.none(), st.floats(-50, 50,
                                                   allow_nan=False)),
                    max_size=25),
           st.integers(1, 8), st.booleans())
    def test_property_topk_equals_sort_prefix(self, values, k,
                                              descending):
        rows = [{"p_affinity": v} for v in values]
        order = OrderBy("p_affinity", descending=descending)
        sorted_rows = list(SortOp(ExecCounters(), _static(rows),
                                  order).rows())
        topk_rows = list(TopKOp(ExecCounters(), _static(rows), order,
                                k).rows())
        key = lambda r: (r["p_affinity"] is not None, r["p_affinity"])
        assert [key(r) for r in topk_rows] == \
            [key(r) for r in sorted_rows[:k]]

    def test_limit(self):
        op = LimitOp(ExecCounters(), _static([{"a": i}
                                              for i in range(10)]), 3)
        assert len(list(op.rows())) == 3

    def test_sort_nulls_first_ascending(self):
        rows = [{"p_affinity": 2.0}, {"p_affinity": None},
                {"p_affinity": 1.0}]
        out = list(SortOp(ExecCounters(), _static(rows),
                          OrderBy("p_affinity")).rows())
        assert out[0]["p_affinity"] is None
        assert out[1]["p_affinity"] == 1.0
