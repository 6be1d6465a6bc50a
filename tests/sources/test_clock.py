"""Tests for the simulated clock."""

import pytest

from repro.errors import SourceError
from repro.sources import SimulatedClock, Stopwatch


class TestClock:
    def test_starts_at_zero(self):
        assert SimulatedClock().now() == 0.0

    def test_custom_start(self):
        clock = SimulatedClock()
        clock.advance(5.0)
        assert clock.now() == 5.0

    def test_advance_accumulates(self):
        clock = SimulatedClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now() == pytest.approx(2.0)

    def test_advance_returns_new_time(self):
        assert SimulatedClock().advance(3.0) == 3.0

    def test_negative_advance_rejected(self):
        clock = SimulatedClock()
        with pytest.raises(SourceError):
            clock.advance(-0.1)

    def test_sleep_is_advance(self):
        clock = SimulatedClock()
        clock.sleep(2.0)
        assert clock.now() == 2.0


class TestStopwatch:
    def test_measures_elapsed_virtual_time(self):
        clock = SimulatedClock()
        with Stopwatch(clock) as watch:
            clock.advance(1.0)
            clock.advance(0.25)
        assert watch.elapsed == pytest.approx(1.25)

    def test_zero_when_clock_untouched(self):
        clock = SimulatedClock()
        with Stopwatch(clock) as watch:
            pass
        assert watch.elapsed == 0.0
