"""Tests for the row-store table."""

import sys
import threading

import pytest

from repro.core.query.ast import Comparison
from repro.core.query.cards import CardinalityEstimator
from repro.core.query.logical import LogicalScan
from repro.core.query.physical import ExecCounters, ScanOp
from repro.errors import SchemaError, StorageError
from repro.storage import (
    Schema,
    Table,
    float_column,
    int_column,
    string_column,
)


@pytest.fixture
def table():
    schema = Schema([
        string_column("ligand_id"),
        string_column("protein_id"),
        float_column("p_affinity"),
        int_column("assay_count"),
    ])
    return Table("bindings", schema)


def _insert_sample(table, n=6, start=0):
    ids = []
    for i in range(start, start + n):
        ids.append(table.insert({
            "ligand_id": f"L{i % 3}",
            "protein_id": f"P{i}",
            "p_affinity": 5.0 + i,
            "assay_count": i,
        }))
    return ids


class TestRowOperations:
    def test_insert_and_get(self, table):
        row_id = table.insert({
            "ligand_id": "L1", "protein_id": "P1",
            "p_affinity": 7.2, "assay_count": 3,
        })
        assert table.get(row_id) == ("L1", "P1", 7.2, 3)
        assert table.get_dict(row_id)["p_affinity"] == 7.2

    def test_row_ids_monotonic(self, table):
        ids = _insert_sample(table)
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)

    def test_insert_validates_schema(self, table):
        with pytest.raises(SchemaError):
            table.insert({"ligand_id": "L1"})

    def test_scan_in_insertion_order(self, table):
        ids = _insert_sample(table)
        assert [row_id for row_id, _ in table.scan()] == ids

    def test_value_accessor(self, table):
        _insert_sample(table, 1)
        row = next(table.scan_rows())
        assert table.value(row, "protein_id") == "P0"


class TestIndexMaintenance:
    def test_index_backfilled_on_creation(self, table):
        _insert_sample(table)
        index = table.create_index(["ligand_id"], kind="hash")
        assert len(index.lookup("L0")) == 2

    def test_index_updated_on_insert(self, table):
        index = table.create_index(["ligand_id"], kind="hash")
        _insert_sample(table)
        assert len(index.lookup("L1")) == 2

    def test_sorted_index_range(self, table):
        index = table.create_index(["p_affinity"], kind="sorted")
        _insert_sample(table)
        row_ids = index.range(6.0, 8.0)
        values = [table.get(row_id)[2] for row_id in row_ids]
        assert values == [6.0, 7.0, 8.0]

    def test_composite_hash_index(self, table):
        index = table.create_index(["ligand_id", "protein_id"], kind="hash")
        _insert_sample(table)
        assert len(index.lookup(("L0", "P0"))) == 1

    def test_duplicate_index_name_rejected(self, table):
        table.create_index(["ligand_id"], kind="hash", name="ix")
        with pytest.raises(StorageError, match="already exists"):
            table.create_index(["protein_id"], kind="hash", name="ix")

    def test_unknown_column_rejected(self, table):
        with pytest.raises(SchemaError):
            table.create_index(["nope"])

    def test_unknown_kind_rejected(self, table):
        with pytest.raises(StorageError, match="unknown index kind"):
            table.create_index(["ligand_id"], kind="btree")

    def test_sorted_multicolumn_rejected(self, table):
        with pytest.raises(StorageError):
            table.create_index(["ligand_id", "protein_id"], kind="sorted")

    def test_index_on_prefers_range_support(self, table):
        table.create_index(["p_affinity"], kind="hash")
        table.create_index(["p_affinity"], kind="sorted")
        chosen = table.index_on("p_affinity", require_range=True)
        assert chosen is not None
        assert chosen.supports_range

    def test_index_on_none_when_absent(self, table):
        assert table.index_on("p_affinity") is None


class TestValueCounts:
    def test_backfilled_then_kept_on_insert(self, table):
        _insert_sample(table, n=5)
        table.keep_value_counts("ligand_id")
        assert dict(table.value_counts("ligand_id")) == {"L0": 2, "L1": 2,
                                                         "L2": 1}
        _insert_sample(table, n=2, start=5)
        assert dict(table.value_counts("ligand_id")) == {"L0": 3, "L1": 2,
                                                         "L2": 2}

    def test_nulls_are_counted_under_none(self):
        table = Table("t", Schema([string_column("tag", nullable=True)]))
        table.keep_value_counts("tag")
        for tag in ("a", None, None):
            table.insert({"tag": tag})
        assert dict(table.value_counts("tag")) == {"a": 1, None: 2}

    def test_none_unless_asked_for(self, table):
        assert table.value_counts("ligand_id") is None

    def test_unknown_column_rejected(self, table):
        with pytest.raises(SchemaError):
            table.keep_value_counts("nope")

    def test_no_index_is_created(self, table):
        table.keep_value_counts("ligand_id")
        assert table.index_on("ligand_id") is None


class TestListeners:
    def test_insert_listener_called(self, table):
        seen = []
        table.add_insert_listener(lambda row_id, row: seen.append(row_id))
        ids = _insert_sample(table, 3)
        assert seen == ids


class TestScanSnapshot:
    """A scan walks the rows as of its call: readers run on other
    threads than the writer, and an insert must neither break their
    iteration nor show up half-way through it."""

    def test_an_insert_during_a_scan_is_not_seen(self, table):
        ids = _insert_sample(table, 3)
        pairs, rows = table.scan(), table.scan_rows()
        first_pair, first_row = next(pairs), next(rows)
        _insert_sample(table, 1, start=3)
        assert [first_pair[0]] + [row_id for row_id, _ in pairs] == ids
        assert [first_row, *rows] == [table.get(row_id) for row_id in ids]

    def test_readers_never_raise_while_a_writer_inserts(self, table):
        """Real threads, a switch every microsecond: readers count
        through the indexes and run the row engine's seq scan while one
        thread inserts."""
        _insert_sample(table, 200)
        table.create_index(["ligand_id"], kind="hash")
        table.create_index(["p_affinity"], kind="sorted")
        estimator = CardinalityEstimator({"bindings": table})
        predicates = (Comparison("ligand_id", "=", "L1"),
                      Comparison("p_affinity", ">=", 100.0))
        errors: list[BaseException] = []
        done = threading.Event()

        def reader() -> None:
            try:
                while not done.is_set():
                    assert estimator.scan_rows("bindings", predicates) > 0
                    scan = ScanOp(ExecCounters(), table,
                                  LogicalScan(table.name, "seq")).rows()
                    assert all(record["assay_count"] >= 0
                               for record in scan)
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        def writer() -> None:
            try:
                _insert_sample(table, 2000, start=200)
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)
            finally:
                done.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader) for _ in range(3)]
            threads.append(threading.Thread(target=writer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert [row_id for row_id, _ in table.scan()] == list(range(2200))
