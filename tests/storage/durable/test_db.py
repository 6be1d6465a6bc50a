"""Database engine: LSM lifecycle, crash-recovery matrix, GC."""

import os

import pytest

from repro.faults import Crash, CrashPoint, FaultSchedule
from repro.obs import MetricsRegistry, get_metrics, set_metrics
from repro.storage.durable import Database, StorageConfig
from repro.storage.durable.db import LEVEL_FANOUT


@pytest.fixture(autouse=True)
def fresh_state():
    set_metrics(MetricsRegistry())
    yield
    set_metrics(MetricsRegistry())


def crash_at(db, point):
    db.set_schedule(FaultSchedule([Crash(at=point)]))


def config(tmp_path, **overrides):
    kwargs = {
        "durable": True,
        "data_dir": str(tmp_path / "db"),
        "fsync": "never",
        "memtable_flush_bytes": 512,
    }
    kwargs.update(overrides)
    return StorageConfig(**kwargs)


def open_db(tmp_path, **overrides):
    cfg = config(tmp_path, **overrides)
    return Database.open(cfg.data_dir, cfg)


class TestBasics:
    def test_put_get_delete(self, tmp_path):
        db = open_db(tmp_path, memtable_flush_bytes=1 << 20)
        db.put("a", {"x": 1})
        db.put("b", [1, 2.5, None, True])
        assert db.get("a") == {"x": 1}
        assert db.get("b") == [1, 2.5, None, True]
        db.delete("a")
        assert db.get("a") is None
        assert db.get("missing") is None
        assert list(db.scan()) == [("b", [1, 2.5, None, True])]

    def test_overwrite_newest_wins_across_flushes(self, tmp_path):
        db = open_db(tmp_path)
        db.put("k", "old")
        db.flush()
        db.put("k", "new")
        assert db.get("k") == "new"
        db.flush()
        assert db.get("k") == "new"
        assert list(db.scan()) == [("k", "new")]

    def test_scan_prefix_and_order(self, tmp_path):
        db = open_db(tmp_path, memtable_flush_bytes=1 << 20)
        for i in (3, 1, 2):
            db.put(f"t/a/{i:03d}", i)
        db.put("t/b/000", 99)
        db.flush()
        db.put("t/a/000", 0)
        assert [k for k, _ in db.scan("t/a/")] \
            == ["t/a/000", "t/a/001", "t/a/002", "t/a/003"]
        assert [v for _, v in db.scan("t/a/")] == [0, 1, 2, 3]

    def test_threshold_triggers_flush(self, tmp_path):
        db = open_db(tmp_path, memtable_flush_bytes=256)
        for i in range(50):
            db.put(f"k/{i:04d}", "v" * 20)
        assert db.segments  # at least one flush happened
        assert len(db.memtable) < 50
        assert list(db.scan()) == sorted(
            (f"k/{i:04d}", "v" * 20) for i in range(50)
        )

    def test_batch_defers_sync_and_flush(self, tmp_path):
        db = open_db(tmp_path, fsync="always",
                     memtable_flush_bytes=128)
        with db.batch() as batch:
            for i in range(20):
                batch.put(f"k/{i}", "v" * 20)
            mid_batch_segments = len(db.segments)
        assert mid_batch_segments == 0  # flush deferred to batch end
        assert db.segments  # and performed there
        counters = get_metrics().counter_values()
        assert counters["wal.appends"] == 20
        # Group commit: far fewer fsyncs than appends.
        assert counters["wal.fsyncs"] < 20

    def test_a_nested_batch_joins_the_outer_group_commit(self, tmp_path):
        db = open_db(tmp_path, fsync="always",
                     memtable_flush_bytes=1 << 20)
        with db.batch():
            db.put("k/a", 1)
            with db.batch():  # what a table delete opens
                db.delete("k/b")
                db.put("m/k/rowid", 2)
            for i in range(10):
                db.put(f"k/{i}", i)
        # One outer group, one fsync; the inner exit used to end the
        # group, leaving ten puts to sync one by one (12 in all).
        assert get_metrics().counter_values()["wal.fsyncs"] == 1

    def test_no_flush_fires_inside_an_outer_batch(self, tmp_path):
        db = open_db(tmp_path, memtable_flush_bytes=128)
        with db.batch():
            with db.batch():
                db.put("k/first", "v" * 20)
            for i in range(20):
                db.put(f"k/{i}", "v" * 20)
            mid_batch_segments = len(db.segments)
        assert mid_batch_segments == 0
        assert len(db.segments) == 1
        assert len(db.memtable) == 0

    def test_a_failed_inner_batch_leaves_the_outer_one_open(self,
                                                            tmp_path):
        db = open_db(tmp_path, fsync="always",
                     memtable_flush_bytes=1 << 20)
        with db.batch():
            with pytest.raises(RuntimeError):
                with db.batch():
                    db.put("k/a", 1)
                    raise RuntimeError("abandon the inner group")
            db.put("k/b", 2)
            assert get_metrics().counter_values().get("wal.fsyncs", 0) \
                == 0
        assert get_metrics().counter_values()["wal.fsyncs"] == 1
        assert list(db.scan()) == [("k/a", 1), ("k/b", 2)]


class TestCompaction:
    def test_leveling_respects_fanout(self, tmp_path):
        db = open_db(tmp_path, memtable_flush_bytes=1 << 20)
        for round_number in range(7):
            for i in range(8):
                db.put(f"k/{round_number}/{i}", round_number)
            db.flush()
        for stats in db.level_stats():
            assert stats["segments"] <= LEVEL_FANOUT
        assert db.compactions > 0

    def test_tombstone_gc_only_at_bottom(self, tmp_path):
        db = open_db(tmp_path, memtable_flush_bytes=1 << 20)
        db.put("k/keep", 1)
        db.put("k/dead", 2)
        db.flush()
        db.delete("k/dead")
        db.flush()
        total_tombstones = sum(s.reader.tombstones for s in db.segments)
        assert total_tombstones == 1
        db.compact()
        assert len(db.segments) == 1
        assert db.segments[0].reader.tombstones == 0
        assert list(db.scan()) == [("k/keep", 1)]
        assert db.tombstones_collected == 1

    def test_major_compact_single_segment(self, tmp_path):
        db = open_db(tmp_path, memtable_flush_bytes=1 << 20)
        for i in range(30):
            db.put(f"k/{i:03d}", i)
            if i % 10 == 9:
                db.flush()
        db.compact()
        assert len(db.segments) == 1
        assert [v for _, v in db.scan()] == list(range(30))


class TestRecovery:
    def test_clean_reopen_restores_everything(self, tmp_path):
        db = open_db(tmp_path)
        for i in range(40):
            db.put(f"k/{i:03d}", {"i": i, "f": i * 0.1})
        before = list(db.scan())
        db.close()
        db2 = open_db(tmp_path)
        assert list(db2.scan()) == before
        assert db2.recovery.torn_bytes == 0

    def test_unflushed_records_replay_from_wal(self, tmp_path):
        db = open_db(tmp_path, memtable_flush_bytes=1 << 20)
        db.put("committed", "yes")
        db.wal.sync()
        # Simulated kill: no close(), no flush. Reopen from disk.
        db2 = open_db(tmp_path)
        assert db2.recovery.wal_records == 1
        assert db2.get("committed") == "yes"

    def test_crash_mid_wal_append_truncates_tear(self, tmp_path):
        db = open_db(tmp_path, memtable_flush_bytes=1 << 20)
        db.put("before", 1)
        db.wal.sync()
        crash_at(db, "wal.append.torn")
        with pytest.raises(CrashPoint):
            db.put("torn", 2)
        db2 = open_db(tmp_path)
        assert db2.recovery.torn_bytes > 0
        assert db2.get("before") == 1
        assert db2.get("torn") is None

    def test_crash_post_append_pre_apply_replays_record(self, tmp_path):
        db = open_db(tmp_path, memtable_flush_bytes=1 << 20,
                     fsync="always")
        db.put("a", 1)
        crash_at(db, "db.after_append")
        with pytest.raises(CrashPoint):
            db.put("b", 2)
        # The WAL got the record even though the crash hit right after.
        db2 = open_db(tmp_path)
        assert db2.get("a") == 1
        assert db2.get("b") == 2

    def test_crash_mid_flush_leaves_orphan_and_wal(self, tmp_path):
        db = open_db(tmp_path, memtable_flush_bytes=1 << 20)
        for i in range(10):
            db.put(f"k/{i}", i)
        crash_at(db, "flush.before_manifest")
        with pytest.raises(CrashPoint):
            db.flush()
        # The segment file exists but the manifest never adopted it.
        db2 = open_db(tmp_path)
        assert db2.recovery.orphans_removed == 1
        assert db2.recovery.segments == 0
        assert db2.recovery.wal_records == 10
        assert [v for _, v in db2.scan()] == list(range(10))

    def test_crash_mid_compaction_keeps_inputs(self, tmp_path):
        db = open_db(tmp_path, memtable_flush_bytes=1 << 20)
        for i in range(6):
            db.put(f"k/{i}", i)
            if i % 2 == 1:
                db.flush()
        crash_at(db, "compact.before_manifest")
        with pytest.raises(CrashPoint):
            db.compact_level(0)
        db2 = open_db(tmp_path)
        # The merged output is dropped as an orphan; inputs survive.
        assert db2.recovery.orphans_removed == 1
        assert [v for _, v in db2.scan()] == list(range(6))

    def test_crash_fires_once_and_only_in_its_store(self, tmp_path):
        doomed = open_db(tmp_path / "a", memtable_flush_bytes=1 << 20)
        other = open_db(tmp_path / "b", memtable_flush_bytes=1 << 20)
        crash_at(doomed, "db.after_append")
        other.put("k/0", 0)  # the crash is not other's to take
        with pytest.raises(CrashPoint):
            doomed.put("k/0", 0)
        doomed.put("k/1", 1)  # one-shot: the store writes again
        other.put("k/1", 1)
        assert [v for _, v in other.scan()] == [0, 1]
        doomed.wal.sync()
        assert [v for _, v in open_db(tmp_path / "a").scan()] == [0, 1]

    def test_reopen_is_idempotent(self, tmp_path):
        db = open_db(tmp_path)
        for i in range(20):
            db.put(f"k/{i:02d}", i)
        db.close()
        state = None
        for _ in range(3):
            db = open_db(tmp_path)
            rows = list(db.scan())
            if state is not None:
                assert rows == state
            state = rows
            db.close()

    def test_deletes_survive_reopen(self, tmp_path):
        db = open_db(tmp_path, memtable_flush_bytes=1 << 20)
        db.put("a", 1)
        db.put("b", 2)
        db.flush()
        db.delete("a")
        db.wal.sync()
        db2 = open_db(tmp_path)
        assert db2.get("a") is None
        assert db2.get("b") == 2


class TestObservability:
    def test_gauges_published(self, tmp_path):
        db = open_db(tmp_path, memtable_flush_bytes=1 << 20)
        db.put("k", "v")
        gauges = get_metrics().snapshot()["gauges"]
        assert gauges["memtable.bytes"] > 0
        db.flush()
        gauges = get_metrics().snapshot()["gauges"]
        assert gauges["memtable.bytes"] == 0
        assert gauges["lsm.level_0.segments"] == 1

    def test_counters_cover_wal_and_lsm(self, tmp_path):
        db = open_db(tmp_path, memtable_flush_bytes=1 << 20)
        db.put("k", "v")
        db.flush()
        counters = get_metrics().counter_values()
        assert counters["wal.appends"] == 1
        assert counters["lsm.flushes"] == 1

    def test_spans_emitted(self, tmp_path):
        from repro.obs import Tracer, get_tracer, set_tracer

        previous = get_tracer()
        tracer = Tracer()
        set_tracer(tracer)
        try:
            db = open_db(tmp_path, memtable_flush_bytes=1 << 20)
            db.put("k", "v")
            db.flush()
            db.close()
            names = set(tracer.summary())
            assert "durable.recover" in names
            assert "durable.flush" in names
        finally:
            set_tracer(previous)
