"""Tests for the concurrent fetch scheduler (scatter/gather layer)."""

import sys
import threading

import pytest

from repro.errors import (
    RateLimitError,
    SourceError,
    SourceUnavailableError,
)
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    Tracer,
    set_metrics,
    set_tracer,
)
from repro.sources import (
    BreakerConfig,
    ChaosSource,
    FaultSchedule,
    FetchScheduler,
    LatencyModel,
    LatencySpike,
    Outage,
    SchedulerStats,
    SimulatedClock,
    SourceRegistry,
    TableBackedSource,
    TokenBucket,
)


@pytest.fixture(autouse=True)
def fresh_metrics():
    registry = MetricsRegistry()
    set_metrics(registry)
    yield registry
    set_metrics(MetricsRegistry())


def make_source(clock, kind, n=20, base_s=0.1, page_size=100,
                name=None, rate_limit=None):
    tables = {kind: {f"{kind}{i}": f"v{i}" for i in range(n)}}
    return TableBackedSource(
        name or f"{kind}-src", clock, tables,
        latency=LatencyModel(base_s=base_s, per_item_s=0.0,
                             jitter_fraction=0.0),
        page_size=page_size, rate_limit=rate_limit,
    )


def make_world(kinds=("alpha", "beta", "gamma"), base_s=0.1, **kwargs):
    clock = SimulatedClock()
    registry = SourceRegistry()
    for kind in kinds:
        registry.register(make_source(clock, kind, base_s=base_s,
                                      **kwargs))
    return clock, registry


class TestOverlap:
    def test_distinct_sources_cost_the_max(self):
        clock, registry = make_world()
        scheduler = FetchScheduler(registry)
        out = scheduler.fetch_all([
            ("alpha", ["alpha0", "alpha1"]),
            ("beta", ["beta0"]),
            ("gamma", ["gamma0"]),
        ])
        assert out["alpha"] == {"alpha0": "v0", "alpha1": "v1"}
        assert out["beta"] == {"beta0": "v0"}
        # Three round-trips at 0.1 s each, fully overlapped.
        assert clock.now() == pytest.approx(0.1)
        assert scheduler.stats.overlap_saved_s == pytest.approx(0.2)

    def test_round_trip_counts_match_sequential_dispatch(self):
        clock, registry = make_world()
        scheduler = FetchScheduler(registry)
        scheduler.fetch_all([
            ("alpha", ["alpha0"]), ("beta", ["beta0"]),
        ])
        stats = registry.combined_stats()
        assert stats["roundtrips"] == 2

    def test_fetch_many_single_kind(self):
        clock, registry = make_world()
        scheduler = FetchScheduler(registry)
        out = scheduler.fetch_many("alpha", ["alpha3", "missing"])
        assert out == {"alpha3": "v3"}

    def test_fetch_single_key(self):
        _, registry = make_world()
        scheduler = FetchScheduler(registry)
        assert scheduler.fetch("beta", "beta1") == "v1"
        assert scheduler.fetch("beta", "nope") is None

    def test_empty_batch_is_free(self):
        clock, registry = make_world()
        scheduler = FetchScheduler(registry)
        assert scheduler.fetch_all([]) == {}
        assert scheduler.fetch_all([("alpha", [])]) == {"alpha": {}}
        assert clock.now() == 0.0


class TestPaging:
    def test_oversized_key_set_pages_overlap(self):
        clock, registry = make_world(kinds=("alpha",), page_size=5)
        scheduler = FetchScheduler(registry)
        keys = [f"alpha{i}" for i in range(20)]
        out = scheduler.fetch_many("alpha", keys)
        assert len(out) == 20
        assert scheduler.stats.pages_dispatched == 4
        # Four pages at 0.1 s each dispatched concurrently cost 0.1 s
        # of virtual time (the source would charge 0.4 sequentially).
        assert clock.now() == pytest.approx(0.1)

    def test_explicit_page_size_override(self):
        _, registry = make_world(kinds=("alpha",))
        scheduler = FetchScheduler(registry, page_size=7)
        scheduler.fetch_many("alpha", [f"alpha{i}" for i in range(20)])
        assert scheduler.stats.pages_dispatched == 3


class TestCoalescing:
    def test_intra_batch_duplicates_fetch_once(self):
        clock, registry = make_world(kinds=("alpha",))
        scheduler = FetchScheduler(registry)
        keys = ["alpha0", "alpha1"]
        out = scheduler.fetch_all([
            ("alpha", keys), ("alpha", keys), ("alpha", keys),
        ])
        assert out["alpha"] == {"alpha0": "v0", "alpha1": "v1"}
        assert scheduler.stats.coalesced == 4
        assert registry.combined_stats()["roundtrips"] == 1

    def test_distinct_keys_do_not_coalesce(self):
        _, registry = make_world(kinds=("alpha",))
        scheduler = FetchScheduler(registry)
        scheduler.fetch_all([("alpha", ["alpha0"]),
                             ("alpha", ["alpha1"])])
        assert scheduler.stats.coalesced == 0


def dark(source, until_s=1000.0, timeout_s=0.25):
    """*source* inside an outage window: every call before *until_s*
    pays *timeout_s* and fails."""
    return ChaosSource(source, FaultSchedule([Outage(0.0, until_s)]),
                       timeout_s=timeout_s)


class TestResilience:
    def test_transient_failure_retried(self):
        clock = SimulatedClock()
        registry = SourceRegistry()
        # The first attempt times out at 0.25 s, past the outage.
        registry.register(dark(make_source(clock, "alpha"), until_s=0.2))
        scheduler = FetchScheduler(registry, max_attempts=5)
        out = scheduler.fetch_many("alpha", ["alpha0"])
        assert out == {"alpha0": "v0"}
        assert scheduler.stats.retries == 1

    def test_permanent_failure_raises_after_max_attempts(self):
        clock = SimulatedClock()
        registry = SourceRegistry()
        registry.register(dark(make_source(clock, "alpha")))
        scheduler = FetchScheduler(registry, max_attempts=3)
        with pytest.raises(SourceUnavailableError):
            scheduler.fetch_many("alpha", ["alpha0"])
        assert scheduler.stats.retries == 2  # attempts - 1
        single = FetchScheduler(registry, max_attempts=1)
        with pytest.raises(SourceUnavailableError):
            single.fetch_many("alpha", ["alpha0"])
        assert single.stats.retries == 0

    def test_retry_backoff_charges_virtual_time(self):
        clock = SimulatedClock()
        registry = SourceRegistry()
        registry.register(dark(make_source(clock, "alpha"),
                               timeout_s=0.0))
        scheduler = FetchScheduler(registry, max_attempts=3,
                                   backoff_s=0.1)
        with pytest.raises(SourceUnavailableError):
            scheduler.fetch_many("alpha", ["alpha0"])
        # Backoff 0.1 then 0.2 on the failing task's timeline.
        assert clock.now() == pytest.approx(0.3)

    def test_rate_limited_page_waits_out_the_window(self):
        clock = SimulatedClock()
        registry = SourceRegistry()
        # 0.7 calls/s: the wait is no float the clock lands on cleanly.
        registry.register(make_source(
            clock, "alpha", base_s=0.01, page_size=1,
            rate_limit=TokenBucket(rate=0.7, burst=1)))
        scheduler = FetchScheduler(registry)
        out = scheduler.fetch_many("alpha", ["alpha0", "alpha1"])
        assert len(out) == 2
        # Exactly retry_after_s, once: no guessed sleep, no second rung.
        assert scheduler.stats.rate_limit_waits == 1
        assert clock.now() == pytest.approx(1 / 0.7 + 0.01)

    def test_rate_limit_wait_budget_is_bounded(self):
        clock = SimulatedClock()
        registry = SourceRegistry()
        source = make_source(clock, "alpha", base_s=0.0,
                             rate_limit=TokenBucket(rate=1.0, burst=1))
        registry.register(source)
        source.fetch("alpha", "alpha0")  # spends the only token
        scheduler = FetchScheduler(registry, max_rate_limit_waits=0)
        with pytest.raises(RateLimitError):
            scheduler.fetch_many("alpha", ["alpha1"])
        assert scheduler.stats.rate_limit_waits == 0
        assert clock.now() == 0.0  # refused, not slept on
        patient = FetchScheduler(registry, max_rate_limit_waits=1)
        assert patient.fetch_many("alpha", ["alpha1"]) == {
            "alpha1": "v1"}
        assert patient.stats.rate_limit_waits == 1
        assert clock.now() == pytest.approx(1.0)

    def test_unknown_kind_raises_before_dispatch(self):
        _, registry = make_world(kinds=("alpha",))
        scheduler = FetchScheduler(registry)
        with pytest.raises(SourceError):
            scheduler.fetch_all([("nope", ["x"])])
        assert scheduler.stats.batches == 0

    def test_invalid_construction(self):
        _, registry = make_world(kinds=("alpha",))
        with pytest.raises(SourceError):
            FetchScheduler(registry, max_attempts=0)
        with pytest.raises(SourceError):
            FetchScheduler(registry, backoff_s=-1)
        with pytest.raises(SourceError):
            FetchScheduler(SourceRegistry())  # no clock derivable


class TestOneThread:
    """Pages of a batch run one after another on the caller, each under
    its own task timeline — the region still charges the max."""

    def test_pages_run_on_the_calling_thread(self):
        _, registry = make_world(kinds=("alpha", "beta"), page_size=5)
        idents = []
        for kind in ("alpha", "beta"):
            source = registry.source_for(kind)

            def recording(kind_, page, original=source.fetch_many):
                idents.append(threading.get_ident())
                return original(kind_, page)

            source.fetch_many = recording
        scheduler = FetchScheduler(registry)
        scheduler.fetch_all([
            ("alpha", [f"alpha{i}" for i in range(20)]),
            ("beta", ["beta0"]),
        ])
        assert len(idents) == 5  # four alpha pages + one beta page
        assert set(idents) == {threading.get_ident()}

    def test_pages_reach_a_source_in_page_order(self):
        _, registry = make_world(kinds=("alpha",), page_size=2)
        source = registry.source_for("alpha")
        seen = []
        original = source.fetch_many

        def recording(kind, page):
            seen.append(list(page))
            return original(kind, page)

        source.fetch_many = recording
        keys = [f"alpha{i}" for i in range(12)]
        FetchScheduler(registry).fetch_many("alpha", keys)
        assert seen == [keys[i:i + 2] for i in range(0, 12, 2)]

    def test_fetch_spans_descend_from_the_batch_span(self):
        clock = SimulatedClock()
        registry = SourceRegistry()
        registry.register(ChaosSource(
            make_source(clock, "alpha", page_size=5),
            FaultSchedule([LatencySpike(0.0, 100.0, extra_s=0.05)]),
        ))
        registry.register(make_source(clock, "beta"))
        tracer = Tracer(clock)
        set_tracer(tracer)
        try:
            FetchScheduler(registry).fetch_all([
                ("alpha", [f"alpha{i}" for i in range(10)]),
                ("beta", ["beta0"]),
            ])
        finally:
            set_tracer(NULL_TRACER)
        spans = {span.span_id: span for span in tracer.finished_spans()}

        def ancestors(span):
            names = []
            while span.parent_id is not None:
                span = spans[span.parent_id]
                names.append(span.name)
            return names

        by_name = {}
        for span in spans.values():
            by_name.setdefault(span.name, []).append(span)
        assert len(by_name["scheduler.fetch_all"]) == 1
        assert len(by_name["source.fetch_many"]) == 3
        assert len(by_name["chaos.window"]) == 2
        for name in ("source.fetch_many", "chaos.window"):
            for span in by_name[name]:
                assert "scheduler.fetch_all" in ancestors(span), name

    def test_failing_middle_task_still_charges_the_max(self):
        # Three one-page tasks; the second fails after its timeout.
        # Every task runs to its end, the region charges the slowest,
        # and the failing task's error surfaces after the join.
        clock = SimulatedClock()
        registry = SourceRegistry()
        registry.register(make_source(clock, "alpha", base_s=0.1))
        registry.register(ChaosSource(
            make_source(clock, "beta"),
            FaultSchedule([Outage(0.0, 100.0)]), timeout_s=0.2,
        ))
        registry.register(make_source(clock, "gamma", base_s=0.5))
        scheduler = FetchScheduler(registry, max_attempts=1)
        with pytest.raises(SourceUnavailableError, match="beta-src"):
            scheduler.fetch_all([
                ("alpha", ["alpha0"]), ("beta", ["beta0"]),
                ("gamma", ["gamma0"]),
            ])
        assert clock.now() == pytest.approx(0.5)
        assert scheduler.stats.sequential_virtual_s == pytest.approx(0.8)
        assert registry.source_for("gamma").stats.roundtrips == 1


class _LockedStats(SchedulerStats):
    lock = None

    def __setattr__(self, name, value):
        assert self.lock is None or self.lock.locked(), name
        super().__setattr__(name, value)


class TestSharedAcrossThreads:
    """ "Callers may share one scheduler across their threads": each
    batch is the caller's own, only the stats and breakers are shared
    — and those are locked."""

    THREADS = 6
    ROUNDS = 40

    def _world(self):
        clock = SimulatedClock()
        registry = SourceRegistry()
        registry.register(ChaosSource(
            make_source(clock, "alpha", page_size=3),
            FaultSchedule([LatencySpike(0.0, 1e9, extra_s=0.05)]),
        ))
        registry.register(ChaosSource(
            make_source(clock, "beta"),
            FaultSchedule([Outage(0.0, 1e9)]), timeout_s=0.01,
        ))
        registry.register(make_source(clock, "gamma", page_size=4))
        scheduler = FetchScheduler(
            registry, max_attempts=2,
            breaker_config=BreakerConfig(failure_threshold=3,
                                         reset_timeout_s=1e9),
        )
        # A lost update needs an unlucky switch to show in the sums
        # below; a stat written outside the lock shows on every write.
        scheduler.stats = _LockedStats()
        scheduler.stats.lock = scheduler._lock
        return scheduler

    def _requests(self, thread):
        # Overlapping key sets across threads, duplicates inside each
        # batch, several pages per kind.
        alpha = [f"alpha{(thread + i) % 20}" for i in range(8)]
        gamma = [f"gamma{(2 * thread + i) % 20}" for i in range(6)]
        return [("alpha", alpha), ("beta", ["beta0", "beta1"]),
                ("gamma", gamma), ("alpha", alpha[:3])]

    @staticmethod
    def _answer(outcome):
        return outcome.records, outcome.statuses

    def test_hammer_matches_the_serial_run(self):
        serial = self._world()
        expected = {}
        for thread in range(self.THREADS):
            for _ in range(self.ROUNDS):
                expected[thread] = self._answer(
                    serial.fetch_all_resilient(self._requests(thread)))
        assert expected[0][1] == {"alpha": "fresh", "beta": "missing",
                                  "gamma": "fresh"}

        shared = self._world()
        wrong = []

        def client(thread):
            for _ in range(self.ROUNDS):
                answer = self._answer(shared.fetch_all_resilient(
                    self._requests(thread)))
                if answer != expected[thread]:
                    wrong.append((thread, answer))

        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(self.THREADS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong
        assert shared.stats.batches == self.THREADS * self.ROUNDS
        for stat in ("batches", "keys_requested", "pages_dispatched",
                     "coalesced", "degraded_batches"):
            assert (getattr(shared.stats, stat)
                    == getattr(serial.stats, stat)), stat


class TestMetrics:
    def test_counters_registered_even_when_zero(self, fresh_metrics):
        _, registry = make_world(kinds=("alpha",))
        scheduler = FetchScheduler(registry)
        scheduler.fetch_many("alpha", ["alpha0"])
        counters = fresh_metrics.counter_values("scheduler.")
        assert counters["scheduler.batches"] == 1
        assert counters["scheduler.coalesced"] == 0  # present, zero
        assert counters["scheduler.pages"] == 1

    def test_inflight_gauge_returns_to_zero(self, fresh_metrics):
        _, registry = make_world()
        scheduler = FetchScheduler(registry)
        scheduler.fetch_all([("alpha", ["alpha0"]),
                             ("beta", ["beta0"])])
        assert fresh_metrics.gauge("scheduler.inflight").value == 0

    def test_overlap_savings_counter(self, fresh_metrics):
        _, registry = make_world()
        scheduler = FetchScheduler(registry)
        scheduler.fetch_all([("alpha", ["alpha0"]),
                             ("beta", ["beta0"])])
        saved = fresh_metrics.counter(
            "scheduler.overlap_saved_virtual_s"
        ).value
        assert saved == pytest.approx(0.1)
