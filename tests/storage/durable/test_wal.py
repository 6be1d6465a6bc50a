"""Write-ahead-log framing, torn-tail truncation, fsync policies."""

import os

import pytest

from repro.errors import StorageError
from repro.faults import Crash, CrashPoint, FaultSchedule
from repro.obs import MetricsRegistry, get_metrics, set_metrics
from repro.storage.durable import WriteAheadLog


@pytest.fixture(autouse=True)
def fresh_state():
    set_metrics(MetricsRegistry())
    yield
    set_metrics(MetricsRegistry())


def wal_path(tmp_path):
    return str(tmp_path / "wal.log")


class TestFraming:
    def test_roundtrip(self, tmp_path):
        path = wal_path(tmp_path)
        wal = WriteAheadLog(path, fsync="never")
        payloads = [b"alpha", b"beta", b'{"op":"put","key":"k"}']
        for payload in payloads:
            wal.append(payload)
        wal.close()
        replayed, torn = WriteAheadLog.replay(path)
        assert replayed == payloads
        assert torn == 0

    def test_empty_and_missing_logs_replay_clean(self, tmp_path):
        path = wal_path(tmp_path)
        assert WriteAheadLog.replay(path) == ([], 0)
        WriteAheadLog(path, fsync="never").close()
        assert WriteAheadLog.replay(path) == ([], 0)

    def test_unknown_policy_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            WriteAheadLog(wal_path(tmp_path), fsync="sometimes")


class TestTornTail:
    def test_torn_frame_truncated(self, tmp_path):
        path = wal_path(tmp_path)
        wal = WriteAheadLog(path, fsync="never")
        wal.append(b"committed-1")
        wal.append(b"committed-2")
        wal.schedule = FaultSchedule([Crash(at="wal.append.torn")])
        with pytest.raises(CrashPoint):
            wal.append(b"torn-record")
        replayed, torn = WriteAheadLog.replay(path)
        assert replayed == [b"committed-1", b"committed-2"]
        assert torn > 0
        # The file was physically truncated: a second replay is clean.
        assert WriteAheadLog.replay(path) == (replayed, 0)

    def test_corrupt_crc_stops_replay(self, tmp_path):
        path = wal_path(tmp_path)
        wal = WriteAheadLog(path, fsync="never")
        wal.append(b"good")
        wal.append(b"mangled")
        wal.close()
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.seek(size - 1)
            handle.write(b"\xff")
        replayed, torn = WriteAheadLog.replay(path)
        assert replayed == [b"good"]
        assert torn > 0

    def test_trailing_garbage_dropped(self, tmp_path):
        path = wal_path(tmp_path)
        wal = WriteAheadLog(path, fsync="never")
        wal.append(b"good")
        wal.close()
        with open(path, "ab") as handle:
            handle.write(b"\x01\x02\x03")
        replayed, torn = WriteAheadLog.replay(path)
        assert replayed == [b"good"]
        assert torn == 3


class TestFsyncPolicies:
    def counters(self):
        return get_metrics().counter_values()

    def test_always_syncs_every_append(self, tmp_path):
        wal = WriteAheadLog(wal_path(tmp_path), fsync="always")
        for index in range(5):
            wal.append(b"x" * 10)
        assert self.counters()["wal.fsyncs"] == 5
        assert self.counters()["wal.appends"] == 5

    def test_batch_syncs_on_threshold(self, tmp_path):
        wal = WriteAheadLog(wal_path(tmp_path), fsync="batch",
                            batch_bytes=100)
        wal.append(b"x" * 30)  # 38 framed bytes: below threshold
        assert "wal.fsyncs" not in self.counters()
        wal.append(b"x" * 80)  # crosses 100 unsynced bytes
        assert self.counters()["wal.fsyncs"] == 1

    def test_never_counts_no_fsyncs(self, tmp_path):
        wal = WriteAheadLog(wal_path(tmp_path), fsync="never")
        wal.append(b"x" * 10)
        wal.sync()
        assert "wal.fsyncs" not in self.counters()

    def test_defer_sync_skips_policy_sync(self, tmp_path):
        wal = WriteAheadLog(wal_path(tmp_path), fsync="always")
        wal.append(b"x", defer_sync=True)
        wal.append(b"y", defer_sync=True)
        assert "wal.fsyncs" not in self.counters()
        wal.sync()  # the group commit
        assert self.counters()["wal.fsyncs"] == 1

    def test_byte_counter_tracks_framed_size(self, tmp_path):
        wal = WriteAheadLog(wal_path(tmp_path), fsync="never")
        wal.append(b"x" * 10)
        # 8 header bytes (crc32 + length) + 10 payload bytes.
        assert self.counters()["wal.bytes"] == 18

    def test_reset_empties_the_log(self, tmp_path):
        path = wal_path(tmp_path)
        wal = WriteAheadLog(path, fsync="never")
        wal.append(b"doomed")
        wal.reset()
        wal.append(b"kept")
        wal.close()
        assert WriteAheadLog.replay(path)[0] == [b"kept"]
