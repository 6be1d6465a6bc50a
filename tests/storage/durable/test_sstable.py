"""SSTable layout: entries, block index, bloom filter, footer."""

import pytest

from repro.errors import StorageError
from repro.storage.durable import (
    BloomFilter,
    SSTableReader,
    TOMBSTONE,
    write_sstable,
)


def make_items(count, prefix="k"):
    return [(f"{prefix}/{i:06d}", {"n": i}) for i in range(count)]


def write(tmp_path, items, **kwargs):
    path = str(tmp_path / "seg.sst")
    write_sstable(path, items, **kwargs)
    return SSTableReader(path)


class TestRoundtrip:
    def test_entries_survive(self, tmp_path):
        items = make_items(25)
        reader = write(tmp_path, items)
        assert list(reader.entries()) == items
        assert reader.count == 25
        assert reader.tombstones == 0
        assert reader.min_key == items[0][0]
        assert reader.max_key == items[-1][0]

    def test_point_lookup(self, tmp_path):
        reader = write(tmp_path, make_items(100))
        assert reader.get("k/000042") == (True, {"n": 42})
        assert reader.get("k/000099") == (True, {"n": 99})
        assert reader.get("k/000100") == (False, None)
        assert reader.get("a/missing") == (False, None)

    def test_tombstones_roundtrip(self, tmp_path):
        items = [("k/0", {"n": 0}), ("k/1", TOMBSTONE), ("k/2", {"n": 2})]
        reader = write(tmp_path, items)
        assert reader.tombstones == 1
        found, value = reader.get("k/1")
        assert found and value is TOMBSTONE
        assert [v is TOMBSTONE for _, v in reader.entries()] \
            == [False, True, False]

    def test_unsorted_items_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            write(tmp_path, [("b", 1), ("a", 2)])
        with pytest.raises(StorageError):
            write(tmp_path, [("a", 1), ("a", 2)])  # duplicates too

    def test_empty_segment(self, tmp_path):
        reader = write(tmp_path, [])
        assert list(reader.entries()) == []
        assert reader.get("anything") == (False, None)

    def test_float_values_bit_identical(self, tmp_path):
        # JSON round-trips floats via repr: recovery must be bit-exact.
        values = [0.1 + 0.2, 1e-17, 123456.789012345, -0.0]
        items = [(f"k/{i}", v) for i, v in enumerate(values)]
        reader = write(tmp_path, items)
        assert [v for _, v in reader.entries()] == values


class TestBlockIndex:
    def test_multiple_blocks_created(self, tmp_path):
        reader = write(tmp_path, make_items(200), block_bytes=256)
        assert len(reader.block_index) > 1
        # Every indexed first_key is a real key at increasing offsets.
        offsets = [offset for _, offset in reader.block_index]
        assert offsets == sorted(offsets)

    def test_lookup_correct_across_blocks(self, tmp_path):
        items = make_items(300)
        reader = write(tmp_path, items, block_bytes=128)
        for key, value in items[::37]:
            assert reader.get(key) == (True, value)

    @pytest.mark.parametrize("prefix", [
        "", "a/", "b/", "b/0000", "b/00001", "b/000042", "c/", "d/",
        "b", "bb", "0", "z"])
    def test_prefix_scan_equals_the_filtered_walk(self, tmp_path, prefix):
        items = sorted(make_items(60, "a") + make_items(150, "b")
                       + [("b/000042x", 1), ("bb", TOMBSTONE)]
                       + make_items(40, "c"))
        reader = write(tmp_path, items, block_bytes=96)
        assert len(reader.block_index) > 20
        assert list(reader.scan(prefix)) \
            == [item for item in items if item[0].startswith(prefix)]
        assert reader.get(prefix) == (
            (True, dict(items)[prefix]) if prefix in dict(items)
            else (False, None))


class TestBloom:
    def test_no_false_negatives(self, tmp_path):
        items = make_items(500)
        reader = write(tmp_path, items)
        for key, _ in items:
            assert reader.bloom.might_contain(key)

    def test_filters_absent_keys(self):
        bloom = BloomFilter.for_count(100)
        for i in range(100):
            bloom.add(f"present/{i}")
        misses = sum(not bloom.might_contain(f"absent/{i}")
                     for i in range(1000))
        assert misses > 900  # ~1% false positives at 10 bits/key

    def test_serialization_is_process_independent(self):
        # md5-based positions, not the per-process-salted hash().
        bloom = BloomFilter.for_count(10)
        bloom.add("stable-key")
        clone = BloomFilter.from_dict(bloom.as_dict())
        assert clone.might_contain("stable-key")
        assert clone.bits == bloom.bits

    def test_invalid_sizes_rejected(self):
        with pytest.raises(StorageError):
            BloomFilter(0, 3)
        with pytest.raises(StorageError):
            BloomFilter(64, 0)


class TestMeta:
    def test_corrupt_footer_detected(self, tmp_path):
        path = str(tmp_path / "seg.sst")
        write_sstable(path, make_items(3))
        with open(path, "r+b") as handle:
            handle.truncate(4)  # shorter than the footer-length field
        with pytest.raises(StorageError):
            SSTableReader(path)
