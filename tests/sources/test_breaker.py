"""Circuit breaker state machine, breaker board, deadlines, statuses."""

import pytest

from repro.errors import SourceError
from repro.obs import MetricsRegistry, get_metrics, set_metrics
from repro.sources import (
    BreakerBoard,
    BreakerConfig,
    CircuitBreaker,
    Deadline,
    FetchOutcome,
    SimulatedClock,
)
from repro.sources.resilience import worst_status


@pytest.fixture(autouse=True)
def fresh_metrics():
    set_metrics(MetricsRegistry())
    yield
    set_metrics(MetricsRegistry())


def make_breaker(clock, threshold=3, reset_s=10.0, name="pdb.protein"):
    return CircuitBreaker(
        clock,
        BreakerConfig(failure_threshold=threshold,
                      reset_timeout_s=reset_s),
        name=name,
    )


class TestConfig:
    def test_defaults(self):
        config = BreakerConfig()
        assert config.failure_threshold == 5
        assert config.reset_timeout_s == 30.0

    def test_validation(self):
        with pytest.raises(SourceError):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(SourceError):
            BreakerConfig(reset_timeout_s=0.0)


class TestStateMachine:
    def test_starts_closed_and_allows(self):
        breaker = make_breaker(SimulatedClock())
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_trips_only_at_threshold(self):
        breaker = make_breaker(SimulatedClock(), threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.trips == 1

    def test_success_resets_consecutive_count(self):
        breaker = make_breaker(SimulatedClock(), threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"  # never 3 in a row

    def test_open_short_circuits_without_latency(self):
        clock = SimulatedClock()
        breaker = make_breaker(clock, threshold=1)
        breaker.record_failure()
        before = clock.now()
        assert not breaker.allow()
        assert not breaker.allow()
        assert clock.now() == before  # refusal costs nothing
        assert breaker.short_circuits == 2

    def test_half_open_after_reset_timeout(self):
        clock = SimulatedClock()
        breaker = make_breaker(clock, threshold=1, reset_s=10.0)
        breaker.record_failure()
        clock.advance(9.9)
        assert breaker.state == "open"
        clock.advance(0.1)
        assert breaker.state == "half_open"

    def test_half_open_admits_bounded_probes(self):
        clock = SimulatedClock()
        breaker = make_breaker(clock, threshold=1, reset_s=5.0)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        assert not breaker.allow()  # probe budget spent

    def test_probe_success_closes(self):
        clock = SimulatedClock()
        breaker = make_breaker(clock, threshold=1, reset_s=5.0)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_probe_failure_reopens_for_full_timeout(self):
        clock = SimulatedClock()
        breaker = make_breaker(clock, threshold=3, reset_s=5.0)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()  # single probe failure re-trips
        assert breaker.state == "open"
        assert breaker.trips == 2
        clock.advance(4.9)
        assert breaker.state == "open"
        clock.advance(0.1)
        assert breaker.state == "half_open"

    def test_reset_forces_closed(self):
        clock = SimulatedClock()
        breaker = make_breaker(clock, threshold=1)
        breaker.record_failure()
        breaker.reset()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_state_gauge_tracks_transitions(self):
        clock = SimulatedClock()
        breaker = make_breaker(clock, threshold=1, reset_s=5.0,
                               name="pdb.protein")
        gauge = get_metrics().gauge("breaker.state.pdb.protein")
        breaker.record_failure()
        assert gauge.value == 2.0  # open
        clock.advance(5.0)
        assert breaker.state == "half_open"
        assert gauge.value == 1.0
        breaker.allow()
        breaker.record_success()
        assert gauge.value == 0.0  # closed

    def test_opened_counter(self):
        breaker = make_breaker(SimulatedClock(), threshold=1,
                               name="pdb.protein")
        breaker.record_failure()
        counters = get_metrics().snapshot()["counters"]
        assert counters["breaker.opened.pdb.protein"] == 1


class TestBreakerBoard:
    def test_one_breaker_per_source_kind(self):
        board = BreakerBoard(SimulatedClock())
        first = board.breaker("pdb", "protein")
        assert board.breaker("pdb", "protein") is first
        assert board.breaker("pdb", "ligand") is not first
        assert board.breaker("chembl", "protein") is not first

    def test_snapshot_and_open_fraction(self):
        clock = SimulatedClock()
        board = BreakerBoard(clock, BreakerConfig(failure_threshold=1))
        board.breaker("pdb", "protein").record_failure()
        board.breaker("chembl", "ligand").record_success()
        assert board.snapshot() == {"chembl/ligand": "closed",
                                    "pdb/protein": "open"}
        assert board.open_fraction() == pytest.approx(0.5)
        assert board.trips() == 1

    def test_empty_board_fraction_is_zero(self):
        assert BreakerBoard(SimulatedClock()).open_fraction() == 0.0

    def test_node_identity_separates_breakers(self):
        board = BreakerBoard(SimulatedClock())
        plain = board.breaker("cluster", "replica")
        node_0 = board.breaker("cluster", "replica", node="node-0")
        node_1 = board.breaker("cluster", "replica", node="node-1")
        assert plain is not node_0
        assert node_0 is not node_1
        assert board.breaker("cluster", "replica",
                             node="node-0") is node_0
        assert node_0.name == "cluster.replica@node-0"

    def test_node_breaker_trips_independently(self):
        clock = SimulatedClock()
        board = BreakerBoard(clock, BreakerConfig(failure_threshold=1))
        board.breaker("cluster", "replica",
                      node="node-1").record_failure()
        board.breaker("cluster", "replica",
                      node="node-0").record_success()
        board.breaker("cluster", "replica").record_success()
        assert board.snapshot() == {
            "cluster/replica": "closed",
            "cluster/replica@node-0": "closed",
            "cluster/replica@node-1": "open",
        }
        assert board.trips() == 1
        # The tripped node's gauge reflects the transition.
        gauges = get_metrics().snapshot()["gauges"]
        assert gauges["breaker.state.cluster.replica@node-1"] == 2.0


class TestDeadline:
    def test_budget_must_be_positive(self):
        clock = SimulatedClock()
        with pytest.raises(SourceError):
            Deadline(clock, 0.0)

    def test_remaining_and_exceeded(self):
        clock = SimulatedClock()
        deadline = Deadline(clock, 2.0)
        assert not deadline.exceeded()
        assert deadline.remaining_s() == pytest.approx(2.0)
        clock.advance(1.5)
        assert deadline.remaining_s() == pytest.approx(0.5)
        clock.advance(0.5)
        assert deadline.exceeded()
        assert deadline.remaining_s() == 0.0
        clock.advance(10.0)
        assert deadline.remaining_s() == 0.0  # clamped, never negative


class TestStatuses:
    def test_worst_status_ordering(self):
        assert worst_status("fresh", "partial") == "partial"
        assert worst_status("partial", "fresh") == "partial"
        assert worst_status("fresh", "missing") == "missing"
        assert worst_status("partial", "missing") == "missing"
        assert worst_status("missing", "partial") == "missing"
        assert worst_status("fresh", "fresh") == "fresh"

    def test_outcome_degraded_and_summary(self):
        outcome = FetchOutcome(
            records={"p1": {"protein": "x"}},
            statuses={"protein": "fresh", "ligand": "partial"},
        )
        assert outcome.degraded
        assert outcome.summary() == "ligand=partial, protein=fresh"
        assert not FetchOutcome(statuses={"protein": "fresh"}).degraded
