"""Tests for the runtime lock-order witness.

The graph tests drive fresh :class:`LockWatch` instances rather than
the process singleton — the suite-wide conftest fixture asserts the
singleton acyclic at session end, so seeded violations must stay off
it.  Cycles are witnessed *sequentially* on purpose: the sanitizer's
whole point is flagging opposite acquisition orders without needing
the unlucky interleaving that actually deadlocks.
"""

import threading

import pytest

from tests.obs import lockwatch
from tests.obs.lockwatch import (
    LockOrderViolation,
    LockWatch,
    WatchedLock,
    get_lockwatch,
    installed,
)
from repro.sources.clock import SimulatedClock
from repro.sources.resilience import BreakerConfig, CircuitBreaker


def make_pair(watch):
    alpha = WatchedLock(watch, "repro/fixture.py:10", reentrant=False)
    beta = WatchedLock(watch, "repro/fixture.py:11", reentrant=False)
    return alpha, beta


class TestLockOrderWitness:
    def test_opposite_orders_record_violation(self):
        watch = LockWatch()
        alpha, beta = make_pair(watch)
        with alpha:
            with beta:
                pass
        with beta:
            with alpha:
                pass
        assert len(watch.violations) == 1
        assert "cycle" in watch.violations[0]
        with pytest.raises(LockOrderViolation, match="cycle"):
            watch.assert_acyclic()

    def test_consistent_order_is_clean(self):
        watch = LockWatch()
        alpha, beta = make_pair(watch)
        for _ in range(3):
            with alpha:
                with beta:
                    pass
        assert watch.violations == []
        watch.assert_acyclic()

    def test_three_lock_cycle_detected(self):
        watch = LockWatch()
        alpha, beta = make_pair(watch)
        gamma = WatchedLock(watch, "repro/fixture.py:12", reentrant=False)
        with alpha:
            with beta:
                pass
        with beta:
            with gamma:
                pass
        with gamma:
            with alpha:
                pass
        assert len(watch.violations) == 1

    def test_cross_thread_edges_share_one_graph(self):
        # Each thread's order is locally consistent; only the global
        # graph sees the A->B / B->A conflict.
        watch = LockWatch()
        alpha, beta = make_pair(watch)

        def forward():
            with alpha:
                with beta:
                    pass

        def backward():
            with beta:
                with alpha:
                    pass

        first = threading.Thread(target=forward)
        first.start()
        first.join()
        second = threading.Thread(target=backward)
        second.start()
        second.join()
        assert len(watch.violations) == 1

    def test_rlock_reentrancy_is_not_a_violation(self):
        watch = LockWatch()
        lock = WatchedLock(watch, "repro/fixture.py:20", reentrant=True)
        with lock:
            with lock:
                pass
        assert watch.violations == []
        watch.assert_acyclic()

    def test_plain_lock_reacquire_is_self_deadlock(self):
        watch = LockWatch()
        lock = WatchedLock(watch, "repro/fixture.py:21", reentrant=False)
        # Simulate the witness call a real re-acquire would make (an
        # actual second acquire() would block this test forever).
        watch.record_acquire(lock)
        watch.record_acquire(lock)
        assert len(watch.violations) == 1
        assert "self-deadlock" in watch.violations[0]
        watch.record_release(lock)
        watch.record_release(lock)

    def test_release_unwinds_held_stack(self):
        watch = LockWatch()
        alpha, beta = make_pair(watch)
        with alpha:
            pass
        with beta:
            with alpha:  # no alpha->beta edge exists: fine
                pass
        assert watch.violations == []
        assert ("repro/fixture.py:10", "repro/fixture.py:11") \
            not in watch.edges
        assert ("repro/fixture.py:11", "repro/fixture.py:10") \
            in watch.edges

    def test_reset_clears_graph_and_violations(self):
        watch = LockWatch()
        alpha, beta = make_pair(watch)
        with alpha:
            with beta:
                pass
        with beta:
            with alpha:
                pass
        watch.reset()
        assert watch.edges == {}
        assert watch.violations == []
        watch.assert_acyclic()


class TestCrossClassOrderOnRealClasses:
    """Lock order between classes has one detector — this witness
    (``repro race`` checks one class at a time).  The observer
    inversion: a breaker reads the clock under its own lock; a clock
    that notified a breaker under the clock lock would close a cycle
    no single class shows."""

    def test_observer_inversion_names_both_creation_sites(
            self, monkeypatch):
        watch = LockWatch()  # not the singleton conftest asserts on
        monkeypatch.setattr(lockwatch, "_WATCH", watch)
        observers = []

        class NotifyingClock(SimulatedClock):
            def advance(self, seconds):
                with self._lock:
                    for observer in observers:
                        observer.state  # takes the observer's lock
                    return super().advance(seconds)

        lockwatch.install()
        try:
            clock = NotifyingClock()
            breaker = CircuitBreaker(
                clock, BreakerConfig(failure_threshold=1))
        finally:
            lockwatch.uninstall()
        observers.append(breaker)
        breaker.record_failure()  # trips: breaker lock, then clock lock
        assert not breaker.allow()
        assert watch.violations == []
        clock.advance(1.0)        # clock lock, then breaker lock
        [violation] = watch.violations
        assert "cycle" in violation
        sites = (clock._lock.site, breaker._lock.site)
        assert sites[0].startswith("repro/sources/clock.py:")
        assert sites[1].startswith("repro/sources/resilience.py:")
        assert f"{sites[0]} -> {sites[1]}" in violation
        assert f"{sites[1]} -> {sites[0]}" in violation
        with pytest.raises(LockOrderViolation, match="cycle"):
            watch.assert_acyclic()


class TestInstallation:
    def test_conftest_keeps_witness_installed(self):
        # The suite runs with the sanitizer active end to end.
        assert installed()

    def test_install_nesting_restores_factories(self):
        before_lock = threading.Lock
        before_rlock = threading.RLock
        lockwatch.install()
        try:
            assert threading.Lock is lockwatch._watched_lock_factory
            assert threading.RLock is lockwatch._watched_rlock_factory
        finally:
            lockwatch.uninstall()
        assert threading.Lock is before_lock
        assert threading.RLock is before_rlock

    def test_repro_created_locks_are_wrapped(self):
        # Creation-site filtering: code whose frame lives under a
        # repro/ path gets watched locks; everything else stays raw.
        code = compile(
            "made = factory()", "/fixtures/repro/fake_module.py", "exec")
        lockwatch.install()
        try:
            namespace = {"factory": threading.Lock}
            exec(code, namespace)
            assert isinstance(namespace["made"], WatchedLock)
            assert namespace["made"].site == \
                "repro/fake_module.py:1"
        finally:
            lockwatch.uninstall()

    def test_foreign_locks_stay_raw(self):
        lockwatch.install()
        try:
            made = threading.Lock()  # this file is not under repro/
        finally:
            lockwatch.uninstall()
        assert not isinstance(made, WatchedLock)

    def test_wrapped_lock_reports_to_singleton(self):
        watch = get_lockwatch()
        before = watch.acquisitions
        code = compile(
            "made = factory()", "/fixtures/repro/fake_module.py", "exec")
        lockwatch.install()
        try:
            namespace = {"factory": threading.Lock}
            exec(code, namespace)
            made = namespace["made"]
            with made:
                pass
            assert made.acquire(blocking=False)
            made.release()
        finally:
            lockwatch.uninstall()
        assert watch.acquisitions == before + 2
        assert not made.locked()
