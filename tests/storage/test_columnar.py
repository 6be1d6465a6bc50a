"""ColumnStore: the table-maintained, append-only columnar mirror of a
table."""

import sys
import threading

import numpy as np
import pytest

from repro.core.query.ast import AggregateSpec, Comparison
from repro.core.query.physical import (
    ExecCounters,
    HashAggregateOp,
    StaticRowsOp,
)
from repro.core.query.vectorized import (
    VecHashAggregateOp,
    VecIndexRangeScanOp,
    VecSeqScanOp,
)
from repro.errors import StorageError
from repro.storage import (
    Schema,
    Table,
    bool_column,
    float_column,
    int_column,
    string_column,
)


def make_table(n=10):
    schema = Schema([
        string_column("sample_id"),
        float_column("score"),
        string_column("tag"),
    ])
    table = Table("samples", schema)
    for i in range(n):
        table.insert({
            "sample_id": f"s{i:03d}",
            "score": float(i),
            "tag": "even" if i % 2 == 0 else "odd",
        })
    return table


class TestBackfill:
    def test_backfills_existing_rows(self):
        table = make_table(10)
        store = table.column_store()
        assert len(store) == 10
        assert store.column("score") == [float(i) for i in range(10)]
        assert store.verify_against_rows()

    def test_column_store_is_cached(self):
        table = make_table(3)
        assert table.column_store() is table.column_store()

    def test_gather(self):
        table = make_table(10)
        store = table.column_store()
        assert store.gather("score", [0, 3, 7]) == [0.0, 3.0, 7.0]

    def test_unknown_column_raises(self):
        store = make_table(3).column_store()
        with pytest.raises(StorageError, match="no column"):
            store.column("nope")


class TestListeners:
    def test_insert_appends(self):
        table = make_table(4)
        store = table.column_store()
        table.insert({"sample_id": "s999", "score": 99.0, "tag": "odd"})
        assert len(store) == 5
        assert store.column("score")[-1] == 99.0
        assert store.appends == 1
        assert store.verify_against_rows()

    def test_live_positions_keep_insertion_order(self):
        table = make_table(6)
        store = table.column_store()
        assert list(store.live_positions()) == list(range(6))
        table.insert({"sample_id": "s999", "score": 99.0, "tag": "odd"})
        assert store.live_positions() == range(7)


class TestOrderAgainstReaders:
    """Readers of the store and the indexes take no lock, so the order
    in which one insert reaches the store, the indexes and the
    listeners is what they can see."""

    def test_store_holds_a_row_before_its_index_or_listeners_see_it(self):
        table = make_table(4)
        index = table.create_index(["score"], kind="sorted")
        seen = []
        # Registered before the store exists, as the overlay's
        # data-version stamp is.
        table.add_insert_listener(
            lambda row_id, row: seen.append(store.position_of(row_id)))
        store = table.column_store()
        insert = index.insert

        def checked_insert(key, row_id):
            store.position_of(row_id)  # raises if the store lacks it
            insert(key, row_id)

        index.insert = checked_insert
        table.insert({"sample_id": "s100", "score": 1.5, "tag": "odd"})
        assert seen == [4]
        assert store.verify_against_rows()

    def test_a_reader_builds_the_store_while_the_writer_inserts(self):
        failures = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                table = make_table(2000)

                def writer():
                    for i in range(200):
                        table.insert({"sample_id": f"w{i:03d}",
                                      "score": -float(i), "tag": "new"})

                thread = threading.Thread(target=writer)
                thread.start()
                try:
                    table.column_store()
                except RuntimeError as error:
                    failures.append(error)
                thread.join(timeout=60)
                assert not thread.is_alive()
                if not table.column_store().verify_against_rows():
                    failures.append("the store lost or doubled a row")
        finally:
            sys.setswitchinterval(interval)
        assert failures == []


# -- typed mirrors -----------------------------------------------------------

def typed_schema():
    """Overlay column names, so the query layer's predicates accept
    them: one column of every mirrored kind, a nullable one, strings."""
    return Schema([
        string_column("ligand_id"),
        string_column("activity_type"),
        float_column("p_affinity"),
        int_column("leaf_pre"),
        bool_column("potent"),
        float_column("resolution", nullable=True),
    ])


def typed_row(k):
    return {
        "ligand_id": f"L{k:05d}",
        "activity_type": ("IC50", "Ki", "Kd")[k % 3],
        "p_affinity": ((k * 37) % 101) / 4,
        "leaf_pre": k % 11,
        "potent": k % 3 == 0,
        "resolution": None if k % 5 == 0 else k / 8,
    }


def typed_table(n):
    table = Table("typed", typed_schema())
    for k in range(n):
        table.insert(typed_row(k))
    return table


class TestTypedMirrors:
    def test_one_mirror_per_numeric_or_bool_column(self):
        store = typed_table(20).column_store()
        kinds = {name: (mirror[0].dtype, mirror[1] is not None)
                 for name in store.column_names
                 if (mirror := store.typed(name)) is not None}
        assert kinds == {
            "p_affinity": (np.float64, False),
            "leaf_pre": (np.int64, False),
            "potent": (np.bool_, False),
            "resolution": (np.float64, True),
        }
        data, valid = store.typed("resolution")
        assert valid[:20].tolist() == [k % 5 != 0 for k in range(20)]
        assert data[:20].tolist() == [
            0.0 if k % 5 == 0 else k / 8 for k in range(20)]
        assert store.verify_against_rows()

    def test_appends_grow_the_mirror_by_swapping_a_copy(self):
        table = typed_table(3)
        store = table.column_store()
        before, _ = store.typed("p_affinity")
        for k in range(3, 40):
            table.insert(typed_row(k))
        after, _ = store.typed("p_affinity")
        assert after is not before and len(after) >= 40
        # The old buffer is never written once replaced.
        assert before.tolist() == [typed_row(k)["p_affinity"]
                                   for k in range(3)]
        assert after[:40].tolist() == [typed_row(k)["p_affinity"]
                                       for k in range(40)]
        assert store.verify_against_rows()

    def test_an_empty_table_mirrors_its_first_inserts(self):
        table = typed_table(0)
        store = table.column_store()
        assert len(store.typed("leaf_pre")[0]) == 0
        table.insert(typed_row(7))
        assert store.typed("leaf_pre")[0][0] == 7
        assert store.verify_against_rows()

    @pytest.mark.parametrize("built_before", [True, False])
    @pytest.mark.parametrize("column, value", [
        ("p_affinity", float("nan")),
        ("resolution", float("nan")),
        ("leaf_pre", 2 ** 53),
        ("leaf_pre", -2 ** 53),
        ("leaf_pre", 2 ** 70),
    ])
    def test_a_value_the_dtype_cannot_hold_drops_the_mirror(
            self, built_before, column, value):
        table = typed_table(4)
        if built_before:
            table.column_store()
        table.insert({**typed_row(4), column: value})
        store = table.column_store()
        assert store.typed(column) is None
        table.insert(typed_row(5))  # for good: a fine value restores nothing
        assert store.typed(column) is None
        assert store.typed("potent") is not None
        assert store.verify_against_rows()

    @pytest.mark.parametrize("built_before", [True, False])
    @pytest.mark.parametrize("column, value", [
        ("leaf_pre", True),        # a bool is not an INT
        ("leaf_pre", 3.0),         # nor is a float
        ("p_affinity", False),     # a bool would add nothing to a sum
        ("potent", 1),             # an int is not a BOOL
        ("p_affinity", None),      # NULL in a column that has no mask
        ("p_affinity", np.float64(1.5)),
    ])
    def test_a_wrong_type_through_restore_rows_drops_the_mirror(
            self, built_before, column, value):
        table = typed_table(4)
        if built_before:
            table.column_store()
        schema = table.schema
        row = list(schema.validate_row(typed_row(4)))
        row[schema.index_of(column)] = value
        table.restore_rows([(4, tuple(row))])
        store = table.column_store()
        assert store.typed(column) is None
        assert store.verify_against_rows()

    def test_an_exact_int_in_a_float_column_keeps_the_mirror(self):
        table = typed_table(4)
        store = table.column_store()
        schema = table.schema
        row = list(schema.validate_row(typed_row(4)))
        row[schema.index_of("p_affinity")] = 3
        table.restore_rows([(4, tuple(row))])
        data, _ = store.typed("p_affinity")
        assert data[4] == 3.0
        assert type(store.column("p_affinity")[4]) is int  # the list's
        assert store.verify_against_rows()


# -- typed mirrors against concurrent readers ------------------------------

AT_LEAST = Comparison("p_affinity", ">=", 12.0)
SEQ_COLUMNS = ("ligand_id", "p_affinity", "resolution")
AGGREGATES = (
    AggregateSpec("count", "*"),
    AggregateSpec("sum", "p_affinity"),
    AggregateSpec("min", "resolution"),
    AggregateSpec("max", "leaf_pre"),
    AggregateSpec("mean", "resolution"),
)


def typed_record(k):
    schema = typed_schema()
    return schema.row_as_dict(schema.validate_row(typed_row(k)))


def serial_seq(k):
    return [{c: record[c] for c in SEQ_COLUMNS}
            for record in map(typed_record, range(k))
            if record["p_affinity"] >= 12.0]


def serial_range(k):
    """``10 <= p_affinity < 20`` through the sorted index, which answers
    in row-id order."""
    return [{c: record[c] for c in SEQ_COLUMNS}
            for record in map(typed_record, range(k))
            if 10.0 <= record["p_affinity"] < 20.0]


def serial_grouped(k):
    records = [r for r in map(typed_record, range(k))
               if r["p_affinity"] >= 12.0]
    op = HashAggregateOp(ExecCounters(),
                         StaticRowsOp(ExecCounters(), records),
                         AGGREGATES, "activity_type")
    return list(op.rows())


def vec_seq(store, batch_size=64):
    return list(VecSeqScanOp(ExecCounters(), store, (AT_LEAST,),
                             SEQ_COLUMNS, batch_size).rows())


def vec_range(store, index, batch_size=64):
    return list(VecIndexRangeScanOp(
        ExecCounters(), store, index, 10.0, 20.0, True, False,
        (), SEQ_COLUMNS, batch_size).rows())


def vec_grouped(store, batch_size=64):
    counters = ExecCounters()
    scan = VecSeqScanOp(counters, store, (AT_LEAST,), None, batch_size)
    return list(VecHashAggregateOp(counters, scan, AGGREGATES,
                                   "activity_type").rows())


class TestMirrorsAgainstReaders:
    """A scan takes its positions (live positions, an index), then the
    typed views: a mirror must never be behind the positions that name
    its rows."""

    def test_a_scan_between_the_store_and_the_index_sees_the_row(self):
        table = typed_table(30)
        index = table.create_index(["p_affinity"], kind="sorted")
        store = table.column_store()
        seen = []
        insert = index.insert

        def scan_then_insert(key, row_id):
            # The store holds row 30; the index does not yet.
            assert all(len(store.typed(name)[0]) > row_id for name in
                       ("p_affinity", "leaf_pre", "potent", "resolution"))
            seen.append((vec_seq(store, 7), vec_range(store, index, 7),
                         vec_grouped(store, 7)))
            insert(key, row_id)

        index.insert = scan_then_insert
        table.insert(typed_row(30))
        assert seen == [(serial_seq(31), serial_range(30),
                         serial_grouped(31))]

    def test_first_scans_while_an_append_is_in_flight(self):
        """The writer stops inside the store's append, after the
        buffers took the row and before its row id is published; the
        reader's first scans of the store run then. Neither they nor
        the scans after the append may lose the row: a mirror built
        lazily by that first reader would miss it for good."""
        table = typed_table(30)
        index = table.create_index(["p_affinity"], kind="sorted")
        store = table.column_store()
        paused, resume = threading.Event(), threading.Event()

        class PausingPositions(dict):
            def __setitem__(self, row_id, position):
                paused.set()
                assert resume.wait(30)
                super().__setitem__(row_id, position)

        store._position_of = PausingPositions(store._position_of)
        writer = threading.Thread(target=table.insert,
                                  args=(typed_row(30),))
        writer.start()
        try:
            assert paused.wait(30)
            during = (vec_seq(store, 7), vec_range(store, index, 7),
                      vec_grouped(store, 7))
        finally:
            resume.set()
            writer.join(timeout=30)
        assert not writer.is_alive()
        after = (vec_seq(store, 7), vec_range(store, index, 7),
                 vec_grouped(store, 7))
        assert during == (serial_seq(30), serial_range(30),
                          serial_grouped(30))
        assert after == (serial_seq(31), serial_range(31),
                         serial_grouped(31))
        assert store.verify_against_rows()

    def test_scans_racing_inserts_answer_some_prefix(self):
        """Real threads, a switch every microsecond: a vectorized seq
        scan, index range scan and grouped aggregate race 2,000 inserts
        (eight fresh tables of 250, so the first scans of a store race
        the writer too); each answer is the serial answer over some
        prefix."""
        start, per_table = 300, 250
        serial = {"seq": serial_seq, "range": serial_range,
                  "grouped": serial_grouped}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(8):
                table = typed_table(start)
                index = table.create_index(["p_affinity"], kind="sorted")
                store = table.column_store()
                answers, errors = race_scans(table, index, store, start,
                                             start + per_table)
                assert errors == []
                assert store.verify_against_rows()
                for name, seen in answers.items():
                    assert seen, name
                    for (low, high), got in seen.items():
                        # The range scan reads the index, which trails
                        # the store by at most the row being inserted.
                        floor = low - 1 if name == "range" else low
                        assert any(got == serial[name](k) for k in
                                   range(max(floor, 0), high + 1)), \
                            (name, low, high)
        finally:
            sys.setswitchinterval(interval)


def race_scans(table, index, store, start, stop):
    """Three reader threads scan while one thread inserts rows
    ``start..stop``; the first answer per ``(len before, len after)``
    of each scan, and any error raised."""
    run = {"seq": lambda: vec_seq(store),
           "range": lambda: vec_range(store, index),
           "grouped": lambda: vec_grouped(store)}
    answers = {name: {} for name in run}
    errors: list[BaseException] = []
    done = threading.Event()

    def reader(name):
        try:
            while True:  # at least one scan, however fast the writer
                low = len(store)
                got = run[name]()
                answers[name].setdefault((low, len(store)), got)
                if done.is_set():
                    break
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    def writer():
        try:
            for k in range(start, stop):
                table.insert(typed_row(k))
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)
        finally:
            done.set()

    # The writer starts first: a store's first scans race it too.
    threads = [threading.Thread(target=writer)]
    threads += [threading.Thread(target=reader, args=(name,))
                for name in run]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    return answers, errors
