"""MetricsRegistry: counters, gauges, histogram edges, snapshots."""

import json
import sys
import threading

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS_S,
    DEFAULT_SIZE_BUCKETS,
    Binding,
    Histogram,
    MetricsRegistry,
    get_metrics,
    set_metrics,
)


class TestBinding:
    """A call site's instruments follow the installed registry."""

    @pytest.fixture(autouse=True)
    def _own_registry(self):
        previous = get_metrics()
        yield
        set_metrics(previous)

    def test_binds_once_per_registry(self):
        calls = []
        binding = Binding(lambda metrics: calls.append(metrics)
                          or metrics.counter("x"))
        first = MetricsRegistry()
        set_metrics(first)
        assert first.snapshot()["counters"] == {}  # nothing until read
        binding.get().inc()
        binding.get().inc()
        assert calls == [first]
        second = MetricsRegistry()
        set_metrics(second)
        binding.get().inc()
        assert calls == [first, second]
        assert first.counter("x").value == 2
        assert second.counter("x").value == 1

    def test_rebinds_after_reset(self):
        registry = MetricsRegistry()
        set_metrics(registry)
        binding = Binding(lambda metrics: metrics.counter("x"))
        binding.get().inc(5)
        registry.reset()
        binding.get().inc()
        assert registry.snapshot()["counters"] == {"x": 1}


class TestCounter:
    def test_inc_defaults_to_one(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_get_or_create_returns_the_same_instrument(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.counter("hits").inc()
        assert registry.counter("hits").value == 2

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("hits")
        with pytest.raises(ObservabilityError, match="cannot decrease"):
            counter.inc(-1)

    def test_counter_values_filters_by_prefix(self):
        registry = MetricsRegistry()
        registry.counter("source.roundtrips.pdb").inc(3)
        registry.counter("source.roundtrips.chembl").inc(2)
        registry.counter("cache.hits").inc(9)
        values = registry.counter_values("source.roundtrips.")
        assert values == {
            "source.roundtrips.pdb": 3,
            "source.roundtrips.chembl": 2,
        }


class TestGauge:
    def test_set_and_add(self):
        gauge = MetricsRegistry().gauge("open_sessions")
        gauge.set(3)
        gauge.add(2)
        gauge.add(-4)
        assert gauge.value == 1


class TestHistogramBucketEdges:
    def test_value_exactly_on_an_edge_lands_in_that_bucket(self):
        histogram = Histogram("h", buckets=(1.0, 2.0, 4.0))
        histogram.observe(1.0)
        histogram.observe(2.0)
        histogram.observe(4.0)
        assert histogram.counts == [1, 1, 1]
        assert histogram.overflow == 0

    def test_value_between_edges_lands_in_the_next_bucket_up(self):
        histogram = Histogram("h", buckets=(1.0, 2.0, 4.0))
        histogram.observe(0.5)
        histogram.observe(1.5)
        histogram.observe(3.9)
        assert histogram.counts == [1, 1, 1]

    def test_value_beyond_the_last_bound_overflows(self):
        histogram = Histogram("h", buckets=(1.0, 2.0))
        histogram.observe(2.0001)
        histogram.observe(100.0)
        assert histogram.counts == [0, 0]
        assert histogram.overflow == 2

    def test_stats_track_count_sum_min_max_mean(self):
        histogram = Histogram("h", buckets=(10.0,))
        for value in (1.0, 3.0, 5.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.total == pytest.approx(9.0)
        assert histogram.minimum == 1.0
        assert histogram.maximum == 5.0
        assert histogram.mean == pytest.approx(3.0)

    def test_empty_histogram_has_null_extremes(self):
        histogram = Histogram("h", buckets=(1.0,))
        data = histogram.as_dict()
        assert data["min"] is None
        assert data["max"] is None
        assert histogram.mean == 0.0

    def test_buckets_must_be_strictly_increasing(self):
        with pytest.raises(ObservabilityError):
            Histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(ObservabilityError):
            Histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ObservabilityError):
            Histogram("h", buckets=())

    def test_default_bucket_sets_are_valid(self):
        Histogram("latency", buckets=DEFAULT_LATENCY_BUCKETS_S)
        Histogram("sizes", buckets=DEFAULT_SIZE_BUCKETS)

    def test_conflicting_redefinition_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        assert registry.histogram("h").buckets == (1.0, 2.0)
        assert registry.histogram("h", buckets=(1.0, 2.0)) is \
            registry.histogram("h")
        with pytest.raises(ObservabilityError, match="different buckets"):
            registry.histogram("h", buckets=(1.0, 3.0))


class TestSnapshot:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("cache.hits").inc(7)
        registry.counter("cache.misses").inc(2)
        registry.gauge("open_sessions").set(3)
        histogram = registry.histogram("latency_s", buckets=(0.01, 0.1))
        histogram.observe(0.005)
        histogram.observe(0.25)
        return registry

    def test_snapshot_round_trips_through_json(self):
        snapshot = self._populated().snapshot()
        assert snapshot == json.loads(json.dumps(snapshot))

    def test_snapshot_contents(self):
        snapshot = self._populated().snapshot()
        assert snapshot["counters"] == {"cache.hits": 7,
                                        "cache.misses": 2}
        assert snapshot["gauges"] == {"open_sessions": 3}
        histogram = snapshot["histograms"]["latency_s"]
        assert histogram["buckets"] == [0.01, 0.1]
        assert histogram["counts"] == [1, 0]
        assert histogram["overflow"] == 1
        assert histogram["count"] == 2

    def test_snapshot_names_are_sorted(self):
        registry = MetricsRegistry()
        registry.counter("zeta").inc()
        registry.counter("alpha").inc()
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["alpha", "zeta"]

    def test_snapshot_is_detached_from_live_state(self):
        registry = self._populated()
        snapshot = registry.snapshot()
        registry.counter("cache.hits").inc(100)
        assert snapshot["counters"]["cache.hits"] == 7

    def test_reset_forgets_everything(self):
        registry = self._populated()
        registry.reset()
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }


class TestThreadSafety:
    """Scheduler and pool workers hammer shared instruments; their
    read-modify-write updates must not lose increments (regression
    for the races the concurrency analyzer flagged as CONC101)."""

    @staticmethod
    def _run(threads):
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def test_counter_increments_survive_contention(self):
        counter = MetricsRegistry().counter("hits")

        def hammer():
            for _ in range(2000):
                counter.inc()

        self._run([threading.Thread(target=hammer) for _ in range(8)])
        assert counter.value == 16000

    def test_gauge_adds_balance_out(self):
        gauge = MetricsRegistry().gauge("inflight")

        def hammer(delta):
            for _ in range(2000):
                gauge.add(delta)

        threads = [threading.Thread(target=hammer, args=(+1,))
                   for _ in range(4)]
        threads += [threading.Thread(target=hammer, args=(-1,))
                    for _ in range(4)]
        self._run(threads)
        assert gauge.value == 0

    def test_histogram_observations_all_counted(self):
        histogram = Histogram("h", buckets=(1.0, 2.0, 4.0))

        def hammer():
            for step in range(1500):
                histogram.observe((step % 5) + 0.5)

        self._run([threading.Thread(target=hammer) for _ in range(6)])
        assert histogram.count == 9000
        assert sum(histogram.counts) + histogram.overflow == 9000

    def test_reset_races_instrument_creation(self):
        # reset() clears the instrument maps under the same lock
        # counter()/gauge()/histogram() insert under (CONC101 found it
        # clearing them bare).  Creators, a resetter and a snapshotter
        # run together: nobody may see a map change size mid-iteration,
        # and every instrument handed out must work, reset or not.
        registry = MetricsRegistry()
        errors = []
        stop = threading.Event()

        def create(worker):
            try:
                for step in range(400):
                    name = f"w{worker}.{step % 25}"
                    registry.counter(name).inc()
                    registry.gauge(name).add(1)
                    registry.histogram(name).observe(0.01)
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        def churn(action):
            try:
                while not stop.is_set():
                    action()
            except Exception as exc:
                errors.append(exc)

        background = [threading.Thread(target=churn, args=(action,))
                      for action in (registry.reset, registry.snapshot)]
        creators = [threading.Thread(target=create, args=(worker,))
                    for worker in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in background + creators:
                thread.start()
            for thread in creators:
                thread.join(timeout=60)
            stop.set()
            for thread in background:
                thread.join(timeout=60)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in background + creators)
        assert errors == []
        counter = registry.counter("after")
        counter.inc()
        assert registry.snapshot()["counters"]["after"] == 1


class TestHistogramQuantile:
    def test_empty_histogram_answers_zero(self):
        assert Histogram("h").quantile(0.99) == 0.0

    def test_quantile_range_validated(self):
        histogram = Histogram("h")
        with pytest.raises(ObservabilityError):
            histogram.quantile(1.5)
        with pytest.raises(ObservabilityError):
            histogram.quantile(-0.1)

    def test_extremes_clamp_to_observed_min_max(self):
        histogram = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.3, 0.6, 1.5, 3.0):
            histogram.observe(value)
        # Bucket resolution: the low quantile lands inside the first
        # occupied bucket (never below the observed min), the high one
        # clamps to the observed max.
        assert 0.3 <= histogram.quantile(0.0) <= 1.0
        assert histogram.quantile(1.0) == pytest.approx(3.0)

    def test_median_lands_in_the_right_bucket(self):
        histogram = Histogram("h", buckets=(0.1, 0.2, 0.4, 0.8))
        for _ in range(50):
            histogram.observe(0.15)
        for _ in range(50):
            histogram.observe(0.3)
        median = histogram.quantile(0.5)
        assert 0.1 <= median <= 0.2
        p90 = histogram.quantile(0.9)
        assert 0.2 <= p90 <= 0.4

    def test_overflow_resolves_to_max(self):
        histogram = Histogram("h", buckets=(1.0,))
        histogram.observe(0.5)
        for _ in range(99):
            histogram.observe(7.0)
        assert histogram.quantile(0.99) == pytest.approx(7.0)

    def test_single_observation_everywhere(self):
        histogram = Histogram("h", buckets=(1.0, 2.0))
        histogram.observe(1.4)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert histogram.quantile(q) == pytest.approx(1.4)

    def test_quantiles_are_monotone(self):
        histogram = Histogram("h")
        for step in range(200):
            histogram.observe(0.001 * (step + 1))
        values = [histogram.quantile(q)
                  for q in (0.1, 0.5, 0.9, 0.99, 0.999)]
        assert values == sorted(values)

    def test_summary_shape(self):
        histogram = Histogram("h")
        for value in (0.01, 0.02, 0.03):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 3
        assert summary["mean"] == pytest.approx(0.02)
        assert set(summary) == {"count", "mean", "p50", "p90",
                                "p99", "p999"}
        assert summary["p999"] >= summary["p50"]
