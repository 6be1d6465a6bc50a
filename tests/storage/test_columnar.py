"""ColumnStore: the table-maintained, append-only columnar mirror of a
table."""

import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.query import vectorized
from repro.core.query.ast import AggregateSpec, Band, Comparison
from repro.core.query.logical import LogicalScan
from repro.core.query.physical import ExecCounters, HashAggregateOp
from repro.core.query.vectorized import (
    VecHashAggregateOp,
    VecScanOp,
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
        table.add_insert_listener(lambda pairs: seen.extend(
            store.position_of(row_id) for row_id, _ in pairs))
        store = table.column_store()
        extend = index.extend

        def checked_extend(entries):
            entries = list(entries)
            for _, row_id in entries:
                store.position_of(row_id)  # raises if the store lacks it
            extend(entries)

        index.extend = checked_extend
        table.insert({"sample_id": "s100", "score": 1.5, "tag": "odd"})
        validate = table.schema.validate_row
        table.append_rows([
            (5, validate({"sample_id": "s101", "score": 2.5, "tag": "a"})),
            (6, validate({"sample_id": "s102", "score": 0.5, "tag": "b"})),
        ])
        assert seen == [4, 5, 6]
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
        if value == value:
            table.insert({**typed_row(4), column: value})
        else:
            # insert refuses a NaN; append_rows takes one as recovery
            # hands over a row a store written before that refusal held.
            row = list(table.schema.validate_row(typed_row(4)))
            row[table.schema.index_of(column)] = value
            table.append_rows([(table.next_row_id, tuple(row))])
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
    def test_a_wrong_type_through_append_rows_drops_the_mirror(
            self, built_before, column, value):
        table = typed_table(4)
        if built_before:
            table.column_store()
        schema = table.schema
        row = list(schema.validate_row(typed_row(4)))
        row[schema.index_of(column)] = value
        table.append_rows([(4, tuple(row))], log=False)
        store = table.column_store()
        assert store.typed(column) is None
        assert store.verify_against_rows()

    def test_an_exact_int_in_a_float_column_keeps_the_mirror(self):
        table = typed_table(4)
        store = table.column_store()
        schema = table.schema
        row = list(schema.validate_row(typed_row(4)))
        row[schema.index_of("p_affinity")] = 3
        table.append_rows([(4, tuple(row))], log=False)
        data, _ = store.typed("p_affinity")
        assert data[4] == 3.0
        assert type(store.column("p_affinity")[4]) is int  # the list's
        assert store.verify_against_rows()


def decoded(store, name):
    codes, values = store.coded(name)
    return [values[code] for code in codes[:len(store)].tolist()]


class TestCodedMirror:
    def test_built_on_first_use_in_first_seen_order(self):
        table = typed_table(7)
        store = table.column_store()
        assert store._coders == {}  # inserts alone build none
        codes, values = store.coded("activity_type")
        assert values == ["IC50", "Ki", "Kd"]
        assert codes.dtype == np.int32
        assert codes[:7].tolist() == [0, 1, 2, 0, 1, 2, 0]
        assert decoded(store, "activity_type") == \
            store.column("activity_type")
        assert store.coded("activity_type")[1] is values  # kept

    @pytest.mark.parametrize("name", ["p_affinity", "leaf_pre", "potent",
                                      "resolution", "no_such_column"])
    def test_only_string_columns_are_coded(self, name):
        assert typed_table(3).column_store().coded(name) is None

    def test_appends_extend_it(self):
        table = typed_table(2)
        store = table.column_store()
        store.coded("activity_type")
        for k in range(2, 40):
            table.insert(typed_row(k))
        _, values = store.coded("activity_type")
        assert values == ["IC50", "Ki", "Kd"]
        assert decoded(store, "activity_type") == \
            store.column("activity_type")
        assert store.verify_against_rows()

    def test_null_is_a_value_of_a_nullable_column(self):
        table = Table("nullable", Schema([
            string_column("organism", nullable=True)]))
        for value in ("b", None, "a", None, "b"):
            table.insert({"organism": value})
        store = table.column_store()
        assert store.coded("organism")[1] == ["b", None, "a"]
        assert decoded(store, "organism") == ["b", None, "a", None, "b"]

    @pytest.mark.parametrize("built_before", [True, False])
    @pytest.mark.parametrize("value", [1, True, 1.0, ("IC50",)])
    def test_a_value_that_is_no_string_drops_it(self, built_before, value):
        """``1``, ``1.0`` and ``True`` are one dict key, so codes would
        merge what the row engine's groups keep apart."""
        table = typed_table(4)
        store = table.column_store()
        if built_before:
            assert store.coded("activity_type") is not None
        row = list(table.schema.validate_row(typed_row(4)))
        row[table.schema.index_of("activity_type")] = value
        table.append_rows([(4, tuple(row))], log=False)
        assert store.coded("activity_type") is None
        table.insert(typed_row(5))  # for good
        assert store.coded("activity_type") is None
        assert store.coded("ligand_id") is not None
        assert store.verify_against_rows()

    def test_verify_catches_a_wrong_code_and_a_reordered_list(self):
        table = typed_table(6)
        store = table.column_store()
        codes, values = store.coded("activity_type")
        assert store.verify_against_rows()
        codes[0] = 1
        assert not store.verify_against_rows()
        codes[0] = 0
        values.reverse()
        codes[:6] = [2 - code for code in codes[:6].tolist()]
        assert not store.verify_against_rows()  # decodes, not first-seen


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
    source = SimpleNamespace(rows=lambda: iter(records))
    op = HashAggregateOp(ExecCounters(), source, AGGREGATES,
                         "activity_type")
    return list(op.rows())


SEQ_SCAN = LogicalScan("typed", "seq", residual=(AT_LEAST,))
RANGE_SCAN = LogicalScan("typed", "index_range", access_column="p_affinity",
                         band=Band(10.0, 20.0, include_high=False))


def vec_seq(store):
    return list(VecScanOp(ExecCounters(), store.table, SEQ_SCAN,
                          SEQ_COLUMNS).rows())


def vec_range(store):
    return list(VecScanOp(ExecCounters(), store.table, RANGE_SCAN,
                          SEQ_COLUMNS).rows())


def vec_grouped(store):
    counters = ExecCounters()
    scan = VecScanOp(counters, store.table, SEQ_SCAN, None)
    return list(VecHashAggregateOp(counters, scan, AGGREGATES,
                                   "activity_type").rows())


def vec_coded(store):
    """The grouped aggregate as the engine lowers it: folded at the
    scan's positions, its keys read from the coded mirror."""
    counters = ExecCounters()
    scan = VecScanOp(counters, store.table, SEQ_SCAN, ())
    return list(VecHashAggregateOp(counters, scan, AGGREGATES,
                                   "activity_type", True).rows())


class TestMirrorsAgainstReaders:
    """A scan takes its positions (live positions, an index), then the
    typed views: a mirror must never be behind the positions that name
    its rows."""

    @pytest.fixture(autouse=True)
    def small_batches(self, monkeypatch):
        monkeypatch.setattr(vectorized, "BATCH_SIZE", 7)

    def test_a_scan_between_the_store_and_the_index_sees_the_row(self):
        table = typed_table(30)
        index = table.create_index(["p_affinity"], kind="sorted")
        store = table.column_store()
        # The hook below runs under the table's lock, which a coded
        # mirror's first use takes: build it first.
        store.coded("activity_type")
        seen = []
        extend = index.extend

        def scan_then_extend(entries):
            entries = list(entries)
            # The store holds row 30; the index does not yet.
            assert all(len(store.typed(name)[0]) > 30 for name in
                       ("p_affinity", "leaf_pre", "potent", "resolution"))
            seen.append((vec_seq(store), vec_range(store),
                         vec_grouped(store), vec_coded(store)))
            extend(entries)

        index.extend = scan_then_extend
        table.insert(typed_row(30))
        assert seen == [(serial_seq(31), serial_range(30),
                         serial_grouped(31), serial_grouped(31))]

    def test_first_scans_while_an_append_is_in_flight(self):
        """The writer stops inside the store's append, after the
        buffers took the row and before its row id is published; the
        reader's first scans of the store run then. Neither they nor
        the scans after the append may lose the row: a mirror built
        lazily by that first reader would miss it for good. (A coded
        mirror is built under the table's lock, which the paused writer
        holds: it is built before the writer starts, and the append then
        extends it.)"""
        table = typed_table(30)
        table.create_index(["p_affinity"], kind="sorted")
        store = table.column_store()
        store.coded("activity_type")
        paused, resume = threading.Event(), threading.Event()

        class PausingPositions(dict):
            def update(self, positions):
                paused.set()
                assert resume.wait(30)
                super().update(positions)

        store._position_of = PausingPositions(store._position_of)
        writer = threading.Thread(target=table.insert,
                                  args=(typed_row(30),))
        writer.start()
        try:
            assert paused.wait(30)
            during = (vec_seq(store), vec_range(store),
                      vec_grouped(store), vec_coded(store))
        finally:
            resume.set()
            writer.join(timeout=30)
        assert not writer.is_alive()
        after = (vec_seq(store), vec_range(store), vec_grouped(store),
                 vec_coded(store))
        assert during == (serial_seq(30), serial_range(30),
                          serial_grouped(30), serial_grouped(30))
        assert after == (serial_seq(31), serial_range(31),
                         serial_grouped(31), serial_grouped(31))
        assert store.verify_against_rows()

    def test_a_first_group_by_waits_for_an_append_in_flight(self):
        """The writer stops inside the store's append, after the coded
        mirrors' turn and before the lists take the row. A reader that
        builds a coded mirror then would code the lists without the row,
        and the append, past the coders, would never code it: the build
        waits for the table's lock instead, and codes the row."""
        table = typed_table(30)
        store = table.column_store()
        paused, resume = threading.Event(), threading.Event()

        class PausingList(list):
            def extend(self, values):
                paused.set()
                assert resume.wait(30)
                super().extend(values)

        store._columns["activity_type"] = PausingList(
            store._columns["activity_type"])
        writer = threading.Thread(target=table.insert,
                                  args=(typed_row(30),))
        reader = threading.Thread(target=store.coded,
                                  args=("activity_type",))
        writer.start()
        try:
            assert paused.wait(30)
            reader.start()
            reader.join(timeout=0.2)
            assert reader.is_alive()  # blocked on the writer's lock
        finally:
            resume.set()
            writer.join(timeout=30)
            reader.join(timeout=30)
        assert not writer.is_alive() and not reader.is_alive()
        assert decoded(store, "activity_type") == \
            store.column("activity_type")
        assert len(store) == 31 and store.verify_against_rows()
        assert vec_coded(store) == serial_grouped(31)

    def test_scans_racing_inserts_answer_some_prefix(self, monkeypatch):
        """Real threads, a switch every microsecond: a vectorized seq
        scan, index range scan and grouped aggregate (folding gathered
        batches, and folding the store's positions with the keys from
        its coded mirror) race 2,000 inserts (eight fresh tables of
        250, so the first scans of a store and the coded mirror's build
        race the writer too); each answer is the serial answer over
        some prefix."""
        monkeypatch.setattr(vectorized, "BATCH_SIZE", 64)
        start, per_table = 300, 250
        serial = {"seq": serial_seq, "range": serial_range,
                  "grouped": serial_grouped, "coded": serial_grouped}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(8):
                table = typed_table(start)
                table.create_index(["p_affinity"], kind="sorted")
                store = table.column_store()
                answers, errors = race_scans(table, store, start,
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


    def test_wide_range_scans_racing_batch_appends(self):
        """Real threads, a switch every microsecond: two readers run a
        wide index range scan, which masks the column's mirror and never
        reads the index, while a writer appends 100-row batches. Every
        answer is in row-id order, inside the band, and holds each batch
        whole or not at all."""
        start, size, batches = 300, 100, 6
        serial = {k: serial_range(k)
                  for k in range(start, start + size * batches + 1, size)}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(4):
                table = typed_table(start)
                table.create_index(["p_affinity"], kind="sorted")
                store = table.column_store()
                assert VecScanOp(ExecCounters(), table,
                                 RANGE_SCAN)._masked() is not None
                seen, errors = race_batches(table, store, start, size,
                                            batches)
                assert errors == []
                assert seen
                for got in seen:
                    ids = [int(row["ligand_id"][1:]) for row in got]
                    assert ids == sorted(set(ids))
                    assert all(10.0 <= row["p_affinity"] < 20.0
                               for row in got)
                    assert got in serial.values(), len(got)
        finally:
            sys.setswitchinterval(interval)


def race_batches(table, store, start, size, batches):
    """Two readers scan ``RANGE_SCAN`` while one thread appends
    *batches* batches of *size* rows from row ``start``; every answer
    the readers saw, and any error raised."""
    seen: list[list] = []
    errors: list[BaseException] = []
    done = threading.Event()

    def reader():
        try:
            while True:  # at least one scan, however fast the writer
                seen.append(vec_range(store))
                if done.is_set():
                    break
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    def writer():
        try:
            for first in range(start, start + size * batches, size):
                table.append_rows([
                    (k, table.schema.validate_row(typed_row(k)))
                    for k in range(first, first + size)])
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


def race_scans(table, store, start, stop):
    """Four reader threads scan while one thread inserts rows
    ``start..stop``; the first answer per ``(len before, len after)``
    of each scan, and any error raised."""
    run = {"seq": lambda: vec_seq(store),
           "range": lambda: vec_range(store),
           "grouped": lambda: vec_grouped(store),
           "coded": lambda: vec_coded(store)}
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
