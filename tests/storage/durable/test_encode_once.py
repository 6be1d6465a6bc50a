"""A put encodes its value once, and no byte moves for it.

``Database.put`` builds its WAL record around the value's JSON text and
hands that text to the memtable, and a flush writes it as it is. The
property below holds that path to the bytes the store wrote when it
encoded the whole record dict for the WAL and every value again at
flush: the WAL frames equal :func:`tests.storage.oracles.put_frame`'s,
a flushed segment equals ``write_sstable`` over the decoded items, and
a reopen, from segments or by WAL replay, returns the same values.
"""

import os
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from repro.core.overlay import (
    bindings_schema,
    ligands_schema,
    make_overlay_tables,
    proteins_schema,
)
from repro.storage.durable import Database, StorageConfig, write_sstable
from repro.storage.durable.db import row_key
from repro.storage.durable.sstable import JSON_ENCODER
from repro.storage.schema import ColumnType
from tests.storage.oracles import put_frame, with_planted_bug

STRINGS = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["é", "naïve Ü", "\U0001F9EC\U00010348", "\x00\x1f",
                     "\x7f\u2028\ufeff", '"\\/', ""]),
)
FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, 0.1, 2.0 ** 53 + 1.0]),
    st.integers(-2 ** 60, 2 ** 60),  # an int is coerced to float
)
INTS = st.one_of(st.integers(),
                 st.sampled_from([2 ** 63, -2 ** 63 - 1, 10 ** 30]))
BY_TYPE = {ColumnType.STRING: STRINGS, ColumnType.FLOAT: FLOATS,
           ColumnType.INT: INTS, ColumnType.BOOL: st.booleans()}


def rows_of(name, schema):
    return st.tuples(st.just(name), st.fixed_dictionaries({
        column.name: st.one_of(st.none(), BY_TYPE[column.type])
        if column.nullable else BY_TYPE[column.type]
        for column in schema}))


ROWS = st.lists(st.one_of(rows_of("proteins", proteins_schema()),
                          rows_of("ligands", ligands_schema()),
                          rows_of("bindings", bindings_schema())),
                min_size=1, max_size=10)


def open_db(data_dir):
    return Database.open(data_dir, StorageConfig(
        durable=True, data_dir=data_dir, fsync="never",
        memtable_flush_bytes=1 << 30))


def flushed_segment(db, expected_path, items):
    """Flush *db* and check its one new segment against
    ``write_sstable`` over the sorted decoded *items*."""
    segment = db.flush()
    write_sstable(expected_path, sorted(items.items()))
    with open(os.path.join(db.data_dir, segment.file), "rb") as written, \
            open(expected_path, "rb") as expected:
        assert written.read() == expected.read()


def check_bytes(rows):
    with tempfile.TemporaryDirectory() as work:
        live, replay = (os.path.join(work, name)
                        for name in ("live", "replay"))
        db = open_db(live)
        tables = make_overlay_tables(db)
        frames, items = [], {}
        for name, values in rows:
            # Through append_rows, as recovery hands rows over: insert
            # refuses the NaN a store written before that refusal holds.
            table = tables[name]
            row_id = table.next_row_id
            table.append_rows([(row_id, tuple(
                column.type.coerce(values.get(column.name))
                for column in table.schema))])
            row = table.get(row_id)
            frames.append(put_frame(row_key(name, row_id), list(row)))
            items[row_key(name, row_id)] = list(row)
        db.wal.sync()
        with open(os.path.join(live, "wal.log"), "rb") as handle:
            wal = handle.read()
        assert wal == b"".join(frames)
        # repr tells -0.0 from 0.0 and 1 from 1.0, and nan equals itself.
        decoded = repr(sorted(items.items()))
        flushed_segment(db, os.path.join(work, "live.sst"), items)
        db.close()
        reopened = open_db(live)
        assert repr(list(reopened.scan())) == decoded
        reopened.close()
        # The same log replayed by a fresh store: its memtable holds the
        # replayed values' text, and its flush writes the same segment.
        os.makedirs(replay)
        with open(os.path.join(replay, "wal.log"), "wb") as handle:
            handle.write(wal)
        recovered = open_db(replay)
        assert repr(list(recovered.scan())) == decoded
        flushed_segment(recovered, os.path.join(work, "replay.sst"),
                        items)
        recovered.close()


def bytes_property(**overrides):
    options = {"max_examples": 80, "deadline": None, "derandomize": True,
               "database": None,
               "suppress_health_check": [HealthCheck.too_slow]}
    options.update(overrides)

    @settings(**options)
    @given(ROWS)
    def prop(rows):
        check_bytes(rows)

    return prop


def test_a_put_writes_the_bytes_of_the_record_dict():
    bytes_property()()


def test_the_fallback_without_a_c_encoder_writes_the_same_bytes(
        monkeypatch):
    # JSON_ENCODER builds the C encoder once; where json has none it
    # takes JSONEncoder.encode's own path.
    monkeypatch.setattr(JSON_ENCODER, "_once", None)
    bytes_property(max_examples=20)()


def test_a_writer_with_default_separators_fails_the_property():
    spaced = with_planted_bug(Database.put, (
        "text = encode(value)", "text = json.dumps(value)"))
    with mock.patch.object(Database, "put", spaced), \
            pytest.raises(AssertionError):
        bytes_property(phases=[Phase.generate])()
