"""Resilience primitives: retries, breakers, deadlines, result statuses.

The federation's failure story used to be "retry with backoff and hope":
every fetch against a dark source re-paid the full retry ladder, and one
slow source could stall a whole mobile tap. This module provides the
four primitives the resilient path is built from:

* :class:`RetryLadder` — the one retry policy: an unavailable source is
  retried a bounded number of times with exponential *virtual* backoff.
  The fetch scheduler holds it.
* :class:`CircuitBreaker` / :class:`BreakerBoard` — per ``(source,
  kind)`` closed → open → half-open state machines in *virtual* time.
  After ``failure_threshold`` consecutive failures the breaker opens and
  callers are refused instantly (:class:`~repro.errors.BreakerOpenError`,
  zero latency charged) until ``reset_timeout_s`` has elapsed, when a
  bounded number of half-open probes test the source; a probe success
  closes the breaker, a probe failure re-opens it.
* :class:`Deadline` — a virtual-time budget carried from
  ``QueryEngine.execute`` / mobile taps down into page fetches; once
  expired, remaining pages are cancelled instead of charged.
* :class:`FetchOutcome` + the ``STATUS_*`` constants — the vocabulary of
  graceful degradation: every kind in a resilient fetch is annotated
  ``fresh`` / ``partial`` / ``missing`` so partial answers
  are *flagged*, never silently passed off as complete.

Everything here runs against a :class:`~repro.sources.clock
.SimulatedClock`, so whole failure scenarios (see
:mod:`repro.faults`) replay bit-identically.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterator
from contextlib import AbstractContextManager
from dataclasses import dataclass, field

from repro.errors import SourceError, SourceUnavailableError
from repro.obs import get_metrics
from repro.sources.clock import SimulatedClock

#: Result produced from live source round-trips, complete.
STATUS_FRESH = "fresh"
#: Some keys answered, some lost to faults/deadline — flagged partial.
STATUS_PARTIAL = "partial"
#: Nothing could be served for this kind.
STATUS_MISSING = "missing"

#: Degradation order; a batch's status is the worst of its flushes.
_STATUS_SEVERITY = {STATUS_FRESH: 0, STATUS_PARTIAL: 1, STATUS_MISSING: 2}


def worst_status(first: str, second: str) -> str:
    """The more degraded of two statuses (fresh < partial < missing)."""
    if _STATUS_SEVERITY[second] > _STATUS_SEVERITY[first]:
        return second
    return first


#: Breaker states, with the gauge encoding used in metrics snapshots.
STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half_open"
_STATE_GAUGE = {STATE_CLOSED: 0.0, STATE_HALF_OPEN: 1.0, STATE_OPEN: 2.0}
#: Probe calls admitted through a half-open breaker before it decides.
HALF_OPEN_PROBES = 1


@dataclass(frozen=True)
class BreakerConfig:
    """Tuning knobs of one circuit breaker (see docs/RESILIENCE.md)."""

    #: Consecutive failures that trip a closed breaker open.
    failure_threshold: int = 5
    #: Virtual seconds an open breaker refuses calls before half-open.
    reset_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise SourceError("breaker threshold must be >= 1")
        if self.reset_timeout_s <= 0:
            raise SourceError("breaker reset timeout must be positive")


class Deadline:
    """A virtual-time budget: ``now + budget_s`` at construction.

    Deadlines are *propagated*, not enforced by alarm: every layer that
    is about to pay a round-trip asks :meth:`exceeded` first and cancels
    instead of charging when the budget is gone. Inside a parallel
    region each task timeline checks against its own virtual clock, so
    a deadline carried into scatter/gather behaves per-task.
    """

    __slots__ = ("clock", "budget_s", "expires_at")

    def __init__(self, clock: SimulatedClock, budget_s: float) -> None:
        if budget_s <= 0:
            raise SourceError("deadline budget must be positive")
        self.clock = clock
        self.budget_s = budget_s
        self.expires_at = clock.now() + budget_s

    def remaining_s(self) -> float:
        return max(0.0, self.expires_at - self.clock.now())

    def exceeded(self) -> bool:
        return self.clock.now() >= self.expires_at

    def __repr__(self) -> str:
        return (f"Deadline(budget={self.budget_s:.3f}s, "
                f"remaining={self.remaining_s():.3f}s)")


class CircuitBreaker:
    """Closed → open → half-open breaker for one ``(source, kind)``.

    Thread-safe for callers sharing a scheduler or router across
    threads. One batch records its outcomes in page order and all timing
    is virtual, so breaker behaviour replays deterministically.
    """

    def __init__(self, clock: SimulatedClock,
                 config: BreakerConfig | None = None,
                 name: str = "") -> None:
        self.clock = clock
        self.config = config or BreakerConfig()
        self.name = name
        self._lock = threading.Lock()
        self._state = STATE_CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_admitted = 0
        #: Cumulative transitions to open (trips), for reports.
        self.trips = 0
        #: Calls refused while open (the round-trips never paid).
        self.short_circuits = 0

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open()
            return self._state

    # -- state machine (lock held by callers of the _ methods) ---------

    def _maybe_half_open(self) -> None:
        if (self._state == STATE_OPEN
                and self.clock.now() - self._opened_at
                >= self.config.reset_timeout_s):
            self._set_state(STATE_HALF_OPEN)
            self._probes_admitted = 0

    def _set_state(self, state: str) -> None:
        self._state = state
        if self.name:
            get_metrics().gauge(
                f"breaker.state.{self.name}"
            ).set(_STATE_GAUGE[state])

    def allow(self) -> bool:
        """May a call proceed right now? (Half-open admits probes.)"""
        with self._lock:
            self._maybe_half_open()
            if self._state == STATE_CLOSED:
                return True
            if self._state == STATE_OPEN:
                self.short_circuits += 1
                if self.name:
                    get_metrics().counter(
                        f"breaker.short_circuits.{self.name}"
                    ).inc()
                return False
            # Half-open: admit a bounded number of probe calls.
            if self._probes_admitted < HALF_OPEN_PROBES:
                self._probes_admitted += 1
                return True
            self.short_circuits += 1
            return False

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            if self._state != STATE_CLOSED:
                self._set_state(STATE_CLOSED)
                self._probes_admitted = 0

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            if self._state == STATE_HALF_OPEN:
                self._trip()  # the probe failed: back to open
            elif (self._state == STATE_CLOSED
                    and self._consecutive_failures
                    >= self.config.failure_threshold):
                self._trip()

    def _trip(self) -> None:
        self._set_state(STATE_OPEN)
        self._opened_at = self.clock.now()
        self._probes_admitted = 0
        self.trips += 1
        if self.name:
            get_metrics().counter(f"breaker.opened.{self.name}").inc()

    def reset(self) -> None:
        """Force-close (operator override / test helper)."""
        with self._lock:
            self._set_state(STATE_CLOSED)
            self._consecutive_failures = 0
            self._probes_admitted = 0

    def __repr__(self) -> str:
        return f"CircuitBreaker({self.name!r}, state={self.state!r})"


class BreakerBoard:
    """Lazily-built breakers keyed by ``(source_name, kind[, node])``.

    The optional ``node`` component lets the cluster layer keep one
    breaker per *replica node* rather than per logical source, so a
    single crashed node trips its own breaker without darkening the
    healthy replicas of the same partition.
    """

    def __init__(self, clock: SimulatedClock,
                 config: BreakerConfig | None = None) -> None:
        self.clock = clock
        self.config = config or BreakerConfig()
        self._lock = threading.Lock()
        self._breakers: dict[tuple[str, str, str | None],
                             CircuitBreaker] = {}

    def breaker(self, source_name: str, kind: str,
                node: str | None = None) -> CircuitBreaker:
        slot = (source_name, kind, node)
        with self._lock:
            breaker = self._breakers.get(slot)
            if breaker is None:
                name = f"{source_name}.{kind}"
                if node is not None:
                    name += f"@{node}"
                breaker = CircuitBreaker(
                    self.clock, self.config, name=name,
                )
                self._breakers[slot] = breaker
            return breaker

    def snapshot(self) -> dict[str, str]:
        """``"source/kind[@node]" -> state`` for every breaker seen."""
        with self._lock:
            items = list(self._breakers.items())
        snapshot = {}
        for (source, kind, node), breaker in sorted(
                items, key=lambda item: (item[0][0], item[0][1],
                                         item[0][2] or "")):
            key = f"{source}/{kind}"
            if node is not None:
                key += f"@{node}"
            snapshot[key] = breaker.state
        return snapshot

    def open_fraction(self) -> float:
        """Share of known breakers currently not closed."""
        states = list(self.snapshot().values())
        if not states:
            return 0.0
        return sum(s != STATE_CLOSED for s in states) / len(states)

    def trips(self) -> int:
        with self._lock:
            return sum(b.trips for b in self._breakers.values())


class RetryLadder:
    """The retry budget one holder gives every source call it makes.

    The call stays at the holder's site, inside one attempt context
    after another, until one succeeds or the budget is spent::

        for attempt in ladder.attempts():
            with attempt:
                return source.fetch_many(kind, keys)

    *note* is the holder's meter: it is called with ``"retries"`` each
    time a call climbs a rung, so the holder counts under its own lock
    and metric names.
    """

    def __init__(self, clock: SimulatedClock, note: Callable[[str], None],
                 max_attempts: int = 3, backoff_s: float = 0.0) -> None:
        if max_attempts < 1:
            raise SourceError("need at least one attempt")
        if backoff_s < 0:
            raise SourceError("backoff must be non-negative")
        self.clock = clock
        self.note = note
        self.max_attempts = max_attempts
        self.backoff_s = backoff_s

    def attempts(self, breaker: CircuitBreaker | None = None,
                 ) -> Iterator["_Attempt"]:
        """Attempt contexts for one source call; *breaker* hears each
        unavailable failure and the final success."""
        attempt = _Attempt(self, breaker)
        while True:
            yield attempt


@dataclass
class _Attempt(AbstractContextManager):
    """One rung of the ladder: leaving the context with an unavailable
    source charges the backoff and swallows the fault, until the budget
    is spent and the fault propagates."""

    ladder: RetryLadder
    breaker: CircuitBreaker | None
    failures: int = 0

    def __exit__(self, exc_type, exc, traceback) -> bool:
        ladder = self.ladder
        if isinstance(exc, SourceUnavailableError):
            if self.breaker is not None:
                self.breaker.record_failure()
            self.failures += 1
            if self.failures >= ladder.max_attempts:
                return False
            ladder.note("retries")
            if ladder.backoff_s:
                ladder.clock.advance(
                    ladder.backoff_s * (2 ** (self.failures - 1))
                )
            return True
        if exc is None and self.breaker is not None:
            self.breaker.record_success()
        return False


@dataclass
class FetchOutcome:
    """A resilient fetch's records plus per-kind degradation flags."""

    records: dict[str, dict[str, object]] = field(default_factory=dict)
    #: kind -> STATUS_FRESH / STATUS_PARTIAL / STATUS_MISSING.
    statuses: dict[str, str] = field(default_factory=dict)
    #: kind -> first error message seen for that kind, if any.
    errors: dict[str, str] = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        return any(status != STATUS_FRESH
                   for status in self.statuses.values())

    def summary(self) -> str:
        """One-line ``kind=status`` rendering for logs and trailers."""
        return ", ".join(f"{kind}={status}"
                         for kind, status in sorted(self.statuses.items()))
