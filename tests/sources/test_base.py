"""Tests for the data-source protocol, latency, paging."""

import pytest

from repro.errors import SourceError
from repro.sources import LatencyModel, SimulatedClock, TableBackedSource

FREE = LatencyModel(base_s=0.0, per_item_s=0, jitter_fraction=0)


def _source(clock=None, latency=None, page_size=100, n=10):
    clock = clock or SimulatedClock()
    tables = {
        "thing": {f"k{i}": f"v{i}" for i in range(n)},
    }
    return TableBackedSource("test-src", clock, tables,
                             latency=latency, page_size=page_size)


class TestLatencyModel:
    def test_no_jitter_is_exact(self):
        model = LatencyModel(base_s=0.1, per_item_s=0.01, jitter_fraction=0)
        assert model.sample(5) == pytest.approx(0.15)

    def test_jitter_bounded(self):
        model = LatencyModel(base_s=0.1, per_item_s=0.0,
                             jitter_fraction=0.2, seed=1)
        for _ in range(100):
            value = model.sample(0)
            assert 0.08 <= value <= 0.12

    def test_invalid_parameters(self):
        with pytest.raises(SourceError):
            LatencyModel(base_s=-1)
        with pytest.raises(SourceError):
            LatencyModel(jitter_fraction=1.0)


class TestFetch:
    def test_fetch_single(self):
        source = _source()
        assert source.fetch("thing", "k3") == "v3"

    def test_fetch_missing_returns_none(self):
        source = _source()
        assert source.fetch("thing", "nope") is None

    def test_fetch_many_partial(self):
        source = _source()
        out = source.fetch_many("thing", ["k1", "zz", "k2"])
        assert out == {"k1": "v1", "k2": "v2"}

    def test_unknown_kind(self):
        source = _source()
        with pytest.raises(SourceError, match="does not serve"):
            source.fetch("other", "k1")


class TestCostAccounting:
    def test_each_fetch_charges_base_latency(self):
        clock = SimulatedClock()
        latency = LatencyModel(base_s=0.1, per_item_s=0.0,
                               jitter_fraction=0)
        source = _source(clock=clock, latency=latency)
        source.fetch("thing", "k1")
        source.fetch("thing", "k2")
        assert clock.now() == pytest.approx(0.2)
        assert source.stats.roundtrips == 2

    def test_batch_fetch_is_one_roundtrip(self):
        clock = SimulatedClock()
        latency = LatencyModel(base_s=0.1, per_item_s=0.001,
                               jitter_fraction=0)
        source = _source(clock=clock, latency=latency)
        source.fetch_many("thing", [f"k{i}" for i in range(10)])
        assert source.stats.roundtrips == 1
        assert clock.now() == pytest.approx(0.1 + 0.001 * 10)

    def test_batching_beats_per_item_fetching(self):
        latency = LatencyModel(base_s=0.05, per_item_s=0.0005,
                               jitter_fraction=0)
        keys = [f"k{i}" for i in range(10)]

        clock_naive = SimulatedClock()
        naive = _source(clock=clock_naive, latency=latency)
        for key in keys:
            naive.fetch("thing", key)

        clock_batch = SimulatedClock()
        batch = _source(clock=clock_batch, latency=latency)
        batch.fetch_many("thing", keys)

        assert clock_batch.now() < clock_naive.now() / 5

    def test_paging_charges_per_page(self):
        latency = LatencyModel(base_s=0.1, per_item_s=0, jitter_fraction=0)
        source = _source(latency=latency, page_size=3, n=10)
        source.fetch_many("thing", [f"k{i}" for i in range(10)])
        assert source.stats.roundtrips == 4  # ceil(10 / 3)

    def test_stats_snapshot_and_reset(self):
        source = _source()
        source.fetch_many("thing", ["k1", "k2"])
        snap = source.stats.snapshot()
        assert snap["roundtrips"] == 1
        assert snap["records_returned"] == 2
        assert snap["keys_requested"] == 2
        source.stats.reset()
        assert source.stats.roundtrips == 0


class TestEmptyKeyLists:
    """Regression: an empty request must not cost a round-trip."""

    def test_fetch_many_with_no_keys_is_free(self):
        source = _source()
        assert source.fetch_many("thing", []) == {}
        assert source.stats.roundtrips == 0
        assert source.clock.now() == 0.0
