"""Scheduler resilience: breakers, deadlines, degraded batches."""

import pytest

from repro.errors import (
    BreakerOpenError,
    DeadlineExceededError,
    SourceError,
    SourceUnavailableError,
)
from repro.obs import MetricsRegistry, set_metrics
from repro.sources import (
    BreakerConfig,
    ChaosSource,
    Deadline,
    ErrorBurst,
    FaultSchedule,
    FetchScheduler,
    LatencyModel,
    Outage,
    SimulatedClock,
    SourceRegistry,
    TableBackedSource,
)


@pytest.fixture(autouse=True)
def fresh_metrics():
    registry = MetricsRegistry()
    set_metrics(registry)
    yield registry
    set_metrics(MetricsRegistry())


def make_source(clock, kind, n=20, base_s=0.1, page_size=100,
                name=None):
    tables = {kind: {f"{kind}{i}": f"v{i}" for i in range(n)}}
    return TableBackedSource(
        name or f"{kind}-src", clock, tables,
        latency=LatencyModel(base_s=base_s, per_item_s=0.0,
                             jitter_fraction=0.0),
        page_size=page_size,
    )


def make_world(kinds=("alpha", "beta"), **kwargs):
    clock = SimulatedClock()
    registry = SourceRegistry()
    for kind in kinds:
        registry.register(make_source(clock, kind, **kwargs))
    return clock, registry


def dark_world(dark_kind="alpha", kinds=("alpha", "beta"),
               until_s=1000.0):
    """A world where one source is inside a long outage window."""
    clock = SimulatedClock()
    registry = SourceRegistry()
    for kind in kinds:
        source = make_source(clock, kind)
        if kind == dark_kind:
            source = ChaosSource(
                source, FaultSchedule([Outage(0.0, until_s)]),
            )
        registry.register(source)
    return clock, registry


def degrading(registry, **kwargs):
    """A scheduler under the degrade policy: breakers configured, with
    a threshold these tests never reach."""
    return FetchScheduler(
        registry, breaker_config=BreakerConfig(failure_threshold=1000),
        **kwargs)


class TestResilientBatches:
    def test_all_fresh_when_nothing_fails(self):
        _, registry = make_world()
        scheduler = FetchScheduler(registry)
        outcome = scheduler.fetch_all_resilient([
            ("alpha", ["alpha0"]), ("beta", ["beta0"]),
        ])
        assert outcome.statuses == {"alpha": "fresh", "beta": "fresh"}
        assert not outcome.degraded
        assert outcome.records["alpha"] == {"alpha0": "v0"}
        assert scheduler.stats.degraded_batches == 0

    def test_dark_kind_is_missing_others_fresh(self, fresh_metrics):
        _, registry = dark_world("alpha")
        scheduler = degrading(registry, max_attempts=1)
        outcome = scheduler.fetch_all_resilient([
            ("alpha", ["alpha0"]), ("beta", ["beta0"]),
        ])
        assert outcome.statuses == {"alpha": "missing", "beta": "fresh"}
        assert outcome.degraded
        assert outcome.records["alpha"] == {}
        assert outcome.records["beta"] == {"beta0": "v0"}
        assert "alpha" in outcome.errors
        assert scheduler.stats.degraded_batches == 1
        counters = fresh_metrics.snapshot()["counters"]
        assert counters["scheduler.degraded_batches"] == 1

    def test_partially_answered_kind_is_partial(self):
        # Find a seed where, of three single-key pages through a 50%
        # error burst, at least one fails and at least one answers.
        for seed in range(50):
            clock = SimulatedClock()
            registry = SourceRegistry()
            registry.register(ChaosSource(
                make_source(clock, "alpha", page_size=1),
                FaultSchedule([ErrorBurst(0.0, 1000.0, 0.5)],
                              seed=seed),
            ))
            scheduler = degrading(registry, max_attempts=1)
            outcome = scheduler.fetch_all_resilient([
                ("alpha", ["alpha0", "alpha1", "alpha2"]),
            ])
            if outcome.statuses["alpha"] == "partial":
                assert 0 < len(outcome.records["alpha"]) < 3
                assert outcome.degraded
                return
        pytest.fail("no seed produced a partial batch")

    def test_fetch_all_still_raises(self):
        _, registry = dark_world("alpha")
        scheduler = FetchScheduler(registry, max_attempts=1)
        with pytest.raises(SourceUnavailableError):
            scheduler.fetch_all([("alpha", ["alpha0"])])


class TestDeadlines:
    def test_expired_deadline_cancels_before_any_round_trip(self):
        clock, registry = make_world(kinds=("alpha",))
        deadline = Deadline(clock, 0.5)
        clock.advance(1.0)
        before = clock.now()
        scheduler = FetchScheduler(registry)
        with pytest.raises(DeadlineExceededError):
            scheduler.fetch_all([("alpha", ["alpha0"])],
                                deadline=deadline)
        assert clock.now() == before  # cancelled work costs nothing
        assert scheduler.stats.deadline_cancelled == 1

    def test_deadline_cuts_the_retry_ladder(self, fresh_metrics):
        clock, registry = dark_world("alpha", kinds=("alpha",))
        scheduler = FetchScheduler(registry, max_attempts=5,
                                   backoff_s=1.0)
        deadline = Deadline(clock, 0.5)
        with pytest.raises(DeadlineExceededError):
            scheduler.fetch_all([("alpha", ["alpha0"])],
                                deadline=deadline)
        # One failed attempt, then the 1 s backoff blew the budget.
        assert scheduler.stats.retries == 1
        counters = fresh_metrics.snapshot()["counters"]
        assert counters["source.deadline_exceeded"] == 1
        assert counters["source.deadline_exceeded.alpha-src"] == 1

    def test_resilient_deadline_degrades_instead(self):
        clock, registry = make_world(kinds=("alpha",))
        deadline = Deadline(clock, 0.5)
        clock.advance(1.0)
        scheduler = FetchScheduler(registry)
        outcome = scheduler.fetch_all_resilient(
            [("alpha", ["alpha0"])], deadline=deadline,
        )
        assert outcome.statuses == {"alpha": "missing"}
        assert "deadline" in outcome.errors["alpha"]


class TestBreakers:
    def test_disabled_by_default(self):
        _, registry = make_world(kinds=("alpha",))
        assert FetchScheduler(registry).breakers is None

    def test_trips_and_short_circuits_without_latency(self):
        clock, registry = dark_world("alpha", kinds=("alpha",))
        scheduler = FetchScheduler(
            registry, max_attempts=1,
            breaker_config=BreakerConfig(failure_threshold=2,
                                         reset_timeout_s=10.0),
        )
        for _ in range(2):
            with pytest.raises(SourceUnavailableError):
                scheduler.fetch_many("alpha", ["alpha0"])
        breaker = scheduler.breakers.breaker("alpha-src", "alpha")
        assert breaker.state == "open"
        before = clock.now()
        with pytest.raises(BreakerOpenError):
            scheduler.fetch_many("alpha", ["alpha0"])
        assert clock.now() == before  # no round-trip was paid
        assert scheduler.stats.breaker_skips == 1

    def test_half_open_probe_recovers_a_healed_source(self):
        clock = SimulatedClock()
        registry = SourceRegistry()
        registry.register(ChaosSource(
            make_source(clock, "alpha"),
            FaultSchedule([Outage(0.0, 5.0)]),
        ))
        scheduler = FetchScheduler(
            registry, max_attempts=1,
            breaker_config=BreakerConfig(failure_threshold=2,
                                         reset_timeout_s=3.0),
        )
        for _ in range(2):
            with pytest.raises(SourceUnavailableError):
                scheduler.fetch_many("alpha", ["alpha0"])
        breaker = scheduler.breakers.breaker("alpha-src", "alpha")
        assert breaker.state == "open"
        clock.advance(10.0)  # outage over, reset timeout elapsed
        out = scheduler.fetch_many("alpha", ["alpha0"])
        assert out == {"alpha0": "v0"}
        assert breaker.state == "closed"

    def test_open_breaker_degrades_resilient_batch(self):
        _, registry = dark_world("alpha")
        scheduler = FetchScheduler(
            registry, max_attempts=1,
            breaker_config=BreakerConfig(failure_threshold=1,
                                         reset_timeout_s=100.0),
        )
        scheduler.fetch_all_resilient([("alpha", ["alpha0"])])
        outcome = scheduler.fetch_all_resilient([
            ("alpha", ["alpha1"]), ("beta", ["beta0"]),
        ])
        assert outcome.statuses == {"alpha": "missing", "beta": "fresh"}
        assert "breaker open" in outcome.errors["alpha"]
        assert scheduler.stats.breaker_skips == 1
