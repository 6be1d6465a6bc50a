"""The retry ladder on its own: which faults climb a rung, what each rung
costs on the virtual clock, and what the breaker hears."""

import pytest

from repro.errors import SourceError, SourceUnavailableError
from repro.sources import SimulatedClock
from repro.sources.resilience import RetryLadder


class _Calls:
    """A source call that fails with *errors* in turn, then answers."""

    def __init__(self, *errors):
        self.errors = list(errors)
        self.count = 0

    def __call__(self):
        self.count += 1
        if self.errors:
            raise self.errors.pop(0)
        return "answer"


class _Breaker:
    def __init__(self):
        self.heard = []

    def record_failure(self):
        self.heard.append("failure")

    def record_success(self):
        self.heard.append("success")


def _climb(ladder, call, breaker=None):
    for attempt in ladder.attempts(breaker):
        with attempt:
            return call()


def _ladder(max_attempts=3, backoff_s=0.0):
    notes = []
    clock = SimulatedClock()
    return RetryLadder(clock, notes.append, max_attempts=max_attempts,
                       backoff_s=backoff_s), clock, notes


class TestRetryLadder:
    def test_a_first_answer_climbs_no_rung(self):
        ladder, clock, notes = _ladder(backoff_s=0.1)
        call = _Calls()
        assert _climb(ladder, call) == "answer"
        assert (call.count, notes, clock.now()) == (1, [], 0.0)

    def test_unavailable_source_is_retried_with_doubling_backoff(self):
        ladder, clock, notes = _ladder(max_attempts=3, backoff_s=0.1)
        call = _Calls(SourceUnavailableError("down"),
                      SourceUnavailableError("down"))
        assert _climb(ladder, call) == "answer"
        assert call.count == 3
        assert notes == ["retries", "retries"]
        assert clock.now() == pytest.approx(0.1 + 0.2)

    def test_a_spent_budget_lets_the_fault_through(self):
        ladder, clock, notes = _ladder(max_attempts=2, backoff_s=0.1)
        call = _Calls(*[SourceUnavailableError("down")] * 5)
        with pytest.raises(SourceUnavailableError):
            _climb(ladder, call)
        assert call.count == 2
        # The last failure is not followed by a backoff it cannot use.
        assert notes == ["retries"]
        assert clock.now() == pytest.approx(0.1)

    def test_other_source_errors_are_not_retried(self):
        ladder, clock, notes = _ladder(backoff_s=0.1)
        call = _Calls(SourceError("malformed"))
        with pytest.raises(SourceError, match="malformed"):
            _climb(ladder, call)
        assert (call.count, notes, clock.now()) == (1, [], 0.0)

    def test_zero_backoff_retries_without_moving_the_clock(self):
        ladder, clock, notes = _ladder(max_attempts=2)
        call = _Calls(SourceUnavailableError("down"))
        assert _climb(ladder, call) == "answer"
        assert notes == ["retries"]
        assert clock.now() == 0.0

    def test_breaker_hears_each_failure_and_the_success(self):
        ladder, _, _ = _ladder(max_attempts=3)
        breaker = _Breaker()
        call = _Calls(SourceUnavailableError("down"))
        assert _climb(ladder, call, breaker) == "answer"
        assert breaker.heard == ["failure", "success"]

    def test_breaker_does_not_hear_other_errors(self):
        ladder, _, _ = _ladder()
        breaker = _Breaker()
        with pytest.raises(SourceError):
            _climb(ladder, _Calls(SourceError("malformed")), breaker)
        assert breaker.heard == []

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"backoff_s": -0.1},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(SourceError):
            RetryLadder(SimulatedClock(), lambda name: None, **kwargs)
