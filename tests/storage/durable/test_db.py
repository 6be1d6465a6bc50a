"""Database engine: LSM lifecycle, crash-recovery matrix, compaction,
and a dict model the store is checked against."""

import os
import re
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.faults import CRASH_POINTS, Crash, CrashPoint, FaultSchedule
from repro.obs import MetricsRegistry, get_metrics, set_metrics
from repro.storage.durable import Database, StorageConfig, WriteAheadLog
from repro.storage.durable import db as db_module
from tests.storage.oracles import with_planted_bug


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
    def test_put_and_scan(self, tmp_path):
        db = open_db(tmp_path, memtable_flush_bytes=1 << 20)
        db.put("a", {"x": 1})
        db.put("b", [1, 2.5, None, True])
        assert list(db.scan()) == [("a", {"x": 1}),
                                   ("b", [1, 2.5, None, True])]

    def test_overwrite_newest_wins_across_flushes(self, tmp_path):
        db = open_db(tmp_path)
        db.put("k", "old")
        db.flush()
        db.put("k", "new")
        assert list(db.scan()) == [("k", "new")]
        db.flush()
        assert list(db.scan()) == [("k", "new")]

    def test_scan_prefix_and_order(self, tmp_path):
        db = open_db(tmp_path, memtable_flush_bytes=1 << 20)
        for i in (3, 1, 2):
            db.put(f"t/a/{i:03d}", i)
        db.put("t/b/000", 99)
        db.flush()
        db.put("t/a/000", 0)
        assert list(db.scan()) == [("t/a/000", 0), ("t/a/001", 1),
                                   ("t/a/002", 2), ("t/a/003", 3),
                                   ("t/b/000", 99)]

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
            with db.batch():  # a callee's own group
                db.put("k/b", 2)
                db.put("k/c", 3)
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
    def test_flush_never_compacts(self, tmp_path):
        db = open_db(tmp_path, memtable_flush_bytes=1 << 20)
        rounds = 7
        for round_number in range(rounds):
            for i in range(8):
                db.put(f"k/{round_number}/{i}", round_number)
                db.put(f"k/shared/{i}", round_number)  # shadows the last
            db.flush()
        assert [segment.level for segment in db.segments] == [0] * rounds
        assert get_metrics().counter_values().get("lsm.compactions", 0) == 0
        want = dict(db.scan())
        assert {key: value for key, value in want.items()
                if key.startswith("k/shared/")} \
            == {f"k/shared/{i}": rounds - 1 for i in range(8)}
        db.close()
        reopened = open_db(tmp_path)
        assert len(reopened.segments) == rounds
        assert dict(reopened.scan()) == want

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
        assert list(db2.scan()) == [("committed", "yes")]

    def test_crash_mid_wal_append_truncates_tear(self, tmp_path):
        db = open_db(tmp_path, memtable_flush_bytes=1 << 20)
        db.put("before", 1)
        db.wal.sync()
        crash_at(db, "wal.append.torn")
        with pytest.raises(CrashPoint):
            db.put("torn", 2)
        db2 = open_db(tmp_path)
        assert db2.recovery.torn_bytes > 0
        assert list(db2.scan()) == [("before", 1)]

    def test_crash_post_append_pre_apply_replays_record(self, tmp_path):
        db = open_db(tmp_path, memtable_flush_bytes=1 << 20,
                     fsync="always")
        db.put("a", 1)
        crash_at(db, "db.after_append")
        with pytest.raises(CrashPoint):
            db.put("b", 2)
        # The WAL got the record even though the crash hit right after.
        db2 = open_db(tmp_path)
        assert list(db2.scan()) == [("a", 1), ("b", 2)]

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


class TestRecoveryRefusesWalFramesThatAreNoPut:
    """A CRC-valid frame whose payload is no put record stops recovery
    with a ``StorageError`` naming the WAL and the frame's ordinal, as
    segments and manifests do, never a decoding error."""

    @pytest.mark.parametrize("payload", [
        b"hello",
        b"\xff\xfe",
        b"[1,2]",
        b'{"op":"put","value":1}',
        b'{"key":"k","value":1}',
        b'{"op":"put","key":5,"value":1}',
        b'{"op":"put","key":"k"}',
    ], ids=["not-json", "not-utf8", "an-array", "no-key", "no-op",
            "int-key", "no-value"])
    def test_the_frame_is_refused_by_path_and_ordinal(self, tmp_path,
                                                      payload):
        cfg = config(tmp_path)
        db = Database.open(cfg.data_dir, cfg)
        db.put("a", 1)
        db.wal.close()  # killed before any flush: one frame logged
        wal_path = os.path.join(cfg.data_dir, "wal.log")
        wal = WriteAheadLog(wal_path)
        wal.append(payload)
        wal.close()
        with pytest.raises(StorageError, match=re.escape(repr(wal_path))
                           + " frame 2 "):
            Database.open(cfg.data_dir, cfg)


class TestWritingToAClosedStore:
    def test_put_after_close_raises_and_changes_nothing(self, tmp_path):
        cfg = config(tmp_path, memtable_flush_bytes=1 << 20)
        db = Database.open(cfg.data_dir, cfg)
        db.put("a", 1)
        db.close()
        wal_path = os.path.join(cfg.data_dir, "wal.log")
        wal_bytes = open(wal_path, "rb").read()
        entries = list(db.memtable.items())
        with pytest.raises(StorageError,
                           match=re.escape(repr(cfg.data_dir))):
            db.put("b", 2)
        with pytest.raises(StorageError, match="closed"):
            with db.batch():
                db.put("b", 2)
        assert list(db.memtable.items()) == entries
        assert open(wal_path, "rb").read() == wal_bytes
        assert dict(Database.open(cfg.data_dir, cfg).scan()) == {"a": 1}


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

    def test_memtable_bytes_is_published_once_per_batch(self, tmp_path):
        db = open_db(tmp_path, memtable_flush_bytes=1 << 20)
        gauge = get_metrics().gauge("memtable.bytes")
        with db.batch():
            db.put("a", 1)
            with db.batch():
                db.put("b", 2)
            assert gauge.value == 0
        assert gauge.value == db.memtable.bytes > 0
        db.put("c", 3)
        assert gauge.value == db.memtable.bytes

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


# -- the dict model ----------------------------------------------------------

KEYS = st.sampled_from(["k/0", "k/1"])
PUT = st.tuples(st.just("put"), KEYS, st.integers(0, 9))
WRITES = st.recursive(
    PUT,
    lambda inner: st.tuples(st.just("batch"), st.lists(inner, max_size=4)),
    max_leaves=6,
)
FLUSH = st.tuples(st.just("flush"))
COMPACT_LEVEL = st.tuples(st.just("compact_level"), st.integers(0, 1))
COMPACT = st.tuples(st.just("compact"))
OPS = st.lists(st.one_of(
    WRITES, FLUSH, COMPACT_LEVEL, COMPACT_LEVEL, COMPACT,
    st.tuples(st.just("reopen")),
    st.tuples(st.just("crash"), st.sampled_from(CRASH_POINTS),
              st.one_of(PUT, FLUSH, COMPACT_LEVEL, COMPACT)),
    # A kill inside an open batch: puts logged, then a crash armed at
    # one of the two points a put passes, then more puts.
    st.tuples(st.just("crash_in_batch"),
              st.sampled_from(["wal.append.torn", "db.after_append"]),
              st.lists(PUT, max_size=3), st.lists(PUT, min_size=1,
                                                  max_size=3)),
), min_size=12, max_size=30)


def apply(db, model, op):
    """Run one write or maintenance *op* on *db* and, once it returns,
    on *model* (a batch commits when its outermost group exits)."""
    kind = op[0]
    if kind == "put":
        db.put(op[1], op[2])
        model[op[1]] = op[2]
    elif kind == "batch":
        with db.batch():
            for inner in op[1]:
                apply(db, model, inner)
    elif kind == "flush":
        db.flush()
    elif kind == "compact_level":
        db.compact_level(op[1])
    else:
        db.compact()


def check_against_model(database_cls, ops):
    """After every op, the store's live pairs equal the committed ones.

    A crash is a process kill, not a power loss, so ``os.fsync`` is a
    no-op here; ``fsync="always"`` still hands every append outside a
    batch to the OS. A 48-byte memtable flushes every second write.
    """
    with tempfile.TemporaryDirectory() as data_dir, \
            mock.patch.object(os, "fsync", lambda fd: None):
        cfg = StorageConfig(durable=True, data_dir=data_dir,
                            fsync="always", memtable_flush_bytes=48)
        db = database_cls(data_dir, cfg)
        model = {}
        for op in ops:
            if op[0] == "reopen":
                db.close()
                db = database_cls(data_dir, cfg)
            elif op[0] == "crash_in_batch":
                _, point, before, after = op
                # The store may keep any in-order prefix of the batch's
                # puts, and nothing else.
                prefixes, state = [dict(model)], dict(model)
                for _, key, value in before + after:
                    state[key] = value
                    prefixes.append(dict(state))
                with pytest.raises(CrashPoint):
                    with db.batch():
                        for _, key, value in before:
                            db.put(key, value)
                        db.set_schedule(FaultSchedule([Crash(at=point)]))
                        for _, key, value in after:
                            db.put(key, value)
                db.wal.close()
                db = database_cls(data_dir, cfg)
                model = dict(db.scan())
                assert model in prefixes, ops
            elif op[0] == "crash":
                _, point, action = op
                db.set_schedule(FaultSchedule([Crash(at=point)]))
                try:
                    apply(db, model, action)
                except CrashPoint as crash:
                    # A put is committed once its frame is whole.
                    if action[0] == "put" and crash.args[0] != \
                            "wal.append.torn":
                        model[action[1]] = action[2]
                # Every append outside a batch already reached the OS,
                # so closing the log writes nothing a kill would not.
                db.wal.close()
                db = database_cls(data_dir, cfg)
            else:
                apply(db, model, op)
            assert dict(db.scan()) == model, ops
        db.close()


def model_property(database_cls, **overrides):
    options = {"max_examples": 60, "deadline": None, "derandomize": True,
               "database": None,
               "suppress_health_check": [HealthCheck.too_slow]}
    options.update(overrides)

    @settings(**options)
    @given(OPS)
    def prop(ops):
        check_against_model(database_cls, ops)

    return prop


class TestModel:
    def test_database_matches_a_dict_model(self):
        model_property(Database)()

    def test_merging_segments_by_id_alone_fails_the_model(self):
        # The recency bug the model once found: merging levels 1 and 2
        # mints an id newer than level 0's segments, so reading by id
        # alone lets that merge's older values shadow level 0's.
        by_id = with_planted_bug(db_module._merge, (
            "key=lambda s: (-s.level, s.segment_id)",
            "key=lambda s: s.segment_id"))
        with mock.patch.object(db_module, "_merge", by_id), \
                pytest.raises(AssertionError):
            model_property(Database, max_examples=200,
                           phases=[Phase.generate])()
