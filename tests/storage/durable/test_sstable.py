"""SSTable layout: entries and footer, and what a corrupt file raises."""

import json

import pytest

from repro.errors import StorageError
from repro.storage.durable import Database, SSTableReader, write_sstable
from repro.storage.durable.sstable import _ENTRY, _FOOTER_LEN


def make_items(count, prefix="k"):
    return [(f"{prefix}/{i:06d}", {"n": i}) for i in range(count)]


def write(tmp_path, items):
    path = str(tmp_path / "seg.sst")
    write_sstable(path, items)
    return SSTableReader(path)


class TestRoundtrip:
    def test_entries_survive(self, tmp_path):
        items = make_items(25)
        reader = write(tmp_path, items)
        assert list(reader.entries()) == items
        assert reader.count == 25
        assert reader.min_key == items[0][0]
        assert reader.max_key == items[-1][0]

    def test_unsorted_items_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            write(tmp_path, [("b", 1), ("a", 2)])
        with pytest.raises(StorageError):
            write(tmp_path, [("a", 1), ("a", 2)])  # duplicates too

    def test_empty_segment(self, tmp_path):
        reader = write(tmp_path, [])
        assert list(reader.entries()) == []
        assert (reader.count, reader.min_key, reader.max_key) \
            == (0, None, None)

    def test_float_values_bit_identical(self, tmp_path):
        # JSON round-trips floats via repr: recovery must be bit-exact.
        values = [0.1 + 0.2, 1e-17, 123456.789012345, -0.0]
        items = [(f"k/{i}", v) for i, v in enumerate(values)]
        reader = write(tmp_path, items)
        assert [v for _, v in reader.entries()] == values


class TestMeta:
    def test_corrupt_footer_detected(self, tmp_path):
        path = str(tmp_path / "seg.sst")
        write_sstable(path, make_items(3))
        with open(path, "r+b") as handle:
            handle.truncate(4)  # shorter than the footer-length field
        with pytest.raises(StorageError):
            SSTableReader(path)

    def test_footer_holds_the_key_range_and_counts_only(self, tmp_path):
        path = tmp_path / "seg.sst"
        write_sstable(str(path), [("k/0", 1), ("k/1", None)])
        data = path.read_bytes()
        (length,) = _FOOTER_LEN.unpack(data[-_FOOTER_LEN.size:])
        footer_start = len(data) - _FOOTER_LEN.size - length
        footer = json.loads(data[footer_start:-_FOOTER_LEN.size])
        assert footer == {"min_key": "k/0", "max_key": "k/1", "count": 2,
                          "data_end": footer_start}


def one_segment_store(tmp_path):
    """A closed store holding one segment of three rows; its path."""
    db = Database.open(str(tmp_path / "db"))
    for i in range(3):
        db.put(f"t/x/{i:012d}", {"n": i})
    db.close()
    return tmp_path / "db" / "seg-000001.sst"


def recover(segment):
    """Open the store holding *segment* and read it back whole, as a
    DrugTree recovering it does."""
    db = Database.open(str(segment.parent))
    try:
        return list(db.scan())
    finally:
        db.close()


class TestCorruptFilesRaiseStorageError:
    """Each names the file; none escapes as a decoding error."""

    def test_garbled_footer_byte(self, tmp_path):
        segment = one_segment_store(tmp_path)
        segment.write_bytes(segment.read_bytes().replace(b'"min_key"',
                                                         b'"min_kez"'))
        with pytest.raises(StorageError, match="seg-000001.sst"):
            recover(segment)

    def test_entry_length_past_the_data(self, tmp_path):
        segment = one_segment_store(tmp_path)
        data = bytearray(segment.read_bytes())
        flag, key_len, value_len = _ENTRY.unpack_from(data, 0)
        _ENTRY.pack_into(data, 0, flag, key_len, value_len + 1000)
        segment.write_bytes(bytes(data))
        with pytest.raises(StorageError, match="seg-000001.sst"):
            recover(segment)

    def test_non_utf8_key_byte(self, tmp_path):
        segment = one_segment_store(tmp_path)
        data = bytearray(segment.read_bytes())
        data[_ENTRY.size] = 0xFF  # the first key's first byte
        segment.write_bytes(bytes(data))
        with pytest.raises(StorageError, match="seg-000001.sst"):
            recover(segment)

    def test_data_end_past_the_file(self, tmp_path):
        segment = one_segment_store(tmp_path)
        data = segment.read_bytes()
        (length,) = _FOOTER_LEN.unpack(data[-_FOOTER_LEN.size:])
        footer_start = len(data) - _FOOTER_LEN.size - length
        footer = json.loads(data[footer_start:-_FOOTER_LEN.size])
        footer["data_end"] = len(data) + 100
        footer_bytes = json.dumps(footer).encode()
        segment.write_bytes(data[:footer_start] + footer_bytes
                            + _FOOTER_LEN.pack(len(footer_bytes)))
        with pytest.raises(StorageError, match="seg-000001.sst"):
            recover(segment)

    @pytest.mark.parametrize("manifest",
                             ["not json {", '{"next_segment_id": 2}'])
    def test_unreadable_manifest(self, tmp_path, manifest):
        segment = one_segment_store(tmp_path)
        (segment.parent / "MANIFEST.json").write_text(manifest)
        with pytest.raises(StorageError, match="MANIFEST.json"):
            recover(segment)
