"""Deterministic fault injection: seeded, virtual-time fault schedules.

The paper's pain point — "data is being obtained from multiple sources"
— is really about surviving *flaky* sources, not just averaging fast
ones. This module makes whole failure scenarios first-class and
replayable: a :class:`FaultSchedule` is a composition of virtual-time
windows (outages, latency spikes, error bursts, flapping), and a
:class:`ChaosSource` wrapper applies one schedule to any source that
speaks the uniform dialect. Because every effect is driven by the
:class:`~repro.sources.clock.SimulatedClock` and a seeded RNG, the same
``(seed, schedule)`` pair replays the exact same failure timeline,
round-trip for round-trip — which is what lets experiment E12 compare
resilience policies under *identical* fault injections.

Fault windows compose: a latency spike overlapping an error burst
yields slow *and* flaky round-trips, exactly like a degrading real
service. Outside every window the wrapper is pass-through (the
zero-overhead happy path).
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass

from repro.errors import SourceError, SourceUnavailableError
from repro.obs import get_metrics, get_tracer
from repro.sources.base import DataSource
from repro.sources.clock import SimulatedClock
from repro.sources.wrappers import SourceWrapper


def _check_window(start_s: float, end_s: float) -> None:
    if start_s < 0 or end_s <= start_s:
        raise SourceError(
            f"fault window [{start_s}, {end_s}) is not a valid "
            "virtual-time interval"
        )


@dataclass(frozen=True)
class Outage:
    """The source is dark for the whole window: every call times out."""

    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.end_s)

    def down_at(self, t: float) -> bool:
        return self.start_s <= t < self.end_s


@dataclass(frozen=True)
class Flapping:
    """The source alternates up/down inside the window.

    Each ``period_s`` starts with a down phase lasting ``duty`` of the
    period — a service crash-looping behind a load balancer.
    """

    start_s: float
    end_s: float
    period_s: float = 2.0
    duty: float = 0.5

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.end_s)
        if self.period_s <= 0:
            raise SourceError("flapping period must be positive")
        if not 0.0 < self.duty < 1.0:
            raise SourceError("flapping duty must be in (0, 1)")

    def down_at(self, t: float) -> bool:
        if not self.start_s <= t < self.end_s:
            return False
        phase = (t - self.start_s) % self.period_s
        return phase < self.period_s * self.duty


@dataclass(frozen=True)
class LatencySpike:
    """Round-trips inside the window cost extra virtual latency."""

    start_s: float
    end_s: float
    extra_s: float = 0.0
    #: Multiplier applied to the wrapped call's own virtual cost.
    factor: float = 1.0

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.end_s)
        if self.extra_s < 0:
            raise SourceError("latency spike extra must be >= 0")
        if self.factor < 1.0:
            raise SourceError("latency spike factor must be >= 1")

    def active_at(self, t: float) -> bool:
        return self.start_s <= t < self.end_s


@dataclass(frozen=True)
class ErrorBurst:
    """Calls inside the window fail with the given probability.

    Failures draw from the schedule's seeded RNG, so the burst's exact
    victim sequence replays with the schedule.
    """

    start_s: float
    end_s: float
    failure_rate: float = 0.5

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.end_s)
        if not 0.0 < self.failure_rate <= 1.0:
            raise SourceError("error-burst rate must be in (0, 1]")

    def active_at(self, t: float) -> bool:
        return self.start_s <= t < self.end_s


#: Anything a FaultSchedule can hold.
FaultEvent = Outage | Flapping | LatencySpike | ErrorBurst


@dataclass(frozen=True)
class ChaosEffect:
    """The combined fault state of one instant of virtual time."""

    down: bool = False
    extra_latency_s: float = 0.0
    latency_factor: float = 1.0
    failure_rate: float = 0.0

    @property
    def clean(self) -> bool:
        return (not self.down and self.extra_latency_s == 0.0
                and self.latency_factor == 1.0
                and self.failure_rate == 0.0)


class FaultSchedule:
    """A composable, seeded set of fault windows for one source."""

    def __init__(self, events: tuple[FaultEvent, ...] | list[FaultEvent]
                 = (), seed: int = 0) -> None:
        self.events = tuple(events)
        self.seed = seed
        self._rng = random.Random(seed)

    def effect_at(self, t: float) -> ChaosEffect:
        """Merge every window covering virtual time *t*."""
        down = False
        extra = 0.0
        factor = 1.0
        failure_rate = 0.0
        for event in self.events:
            if isinstance(event, (Outage, Flapping)):
                down = down or event.down_at(t)
            elif isinstance(event, LatencySpike):
                if event.active_at(t):
                    extra += event.extra_s
                    factor *= event.factor
            elif event.active_at(t):  # ErrorBurst
                failure_rate = max(failure_rate, event.failure_rate)
        return ChaosEffect(down=down, extra_latency_s=extra,
                           latency_factor=factor,
                           failure_rate=failure_rate)

    def draw_failure(self, rate: float) -> bool:
        """One seeded Bernoulli draw (consumed per chaos-window call)."""
        return rate > 0 and self._rng.random() < rate

    def horizon_s(self) -> float:
        """Virtual time at which the last window ends."""
        return max((event.end_s for event in self.events), default=0.0)

    def describe(self) -> list[str]:
        return [
            f"{type(event).__name__}[{event.start_s:g}s, "
            f"{event.end_s:g}s)"
            for event in self.events
        ]

    def __repr__(self) -> str:
        return (f"FaultSchedule({len(self.events)} events, "
                f"seed={self.seed})")


@dataclass
class ChaosStats:
    """What one ChaosSource injected so far."""

    calls: int = 0
    injected_failures: int = 0
    injected_latency_s: float = 0.0

    def snapshot(self) -> dict[str, float]:
        return {
            "calls": self.calls,
            "injected_failures": self.injected_failures,
            "injected_latency_s": round(self.injected_latency_s, 6),
        }


class ChaosSource(SourceWrapper):
    """Applies a :class:`FaultSchedule` to the wrapped source.

    Stacks like every other wrapper. A call landing in a down window
    charges ``timeout_s`` of virtual latency (a real client pays for
    its timeouts) and raises :class:`SourceUnavailableError`; a call in
    a latency window pays the extra/multiplied cost; a call in an error
    burst fails per the schedule's seeded RNG. Outside every window the
    wrapper delegates untouched.
    """

    def __init__(self, inner: DataSource, schedule: FaultSchedule,
                 timeout_s: float = 0.25) -> None:
        super().__init__(inner)
        if timeout_s < 0:
            raise SourceError("chaos timeout must be >= 0")
        self.schedule = schedule
        self.timeout_s = timeout_s
        self.chaos_stats = ChaosStats()
        # Caller threads may hit the same wrapper concurrently; stats
        # increments are read-modify-writes and need the guard.  Clock
        # charges stay outside it so waiters never pay for advances.
        self._chaos_lock = threading.Lock()

    # -- fault application ------------------------------------------------

    def _fail(self, reason: str) -> None:
        with self._chaos_lock:
            self.chaos_stats.injected_failures += 1
            self.chaos_stats.injected_latency_s += self.timeout_s
        metrics = get_metrics()
        metrics.counter(f"chaos.injected_failures.{self.name}").inc()
        # A timeout is paid for: the client waited before giving up.
        self.clock.advance(self.timeout_s)
        raise SourceUnavailableError(
            f"source {self.name!r} {reason} (chaos-injected)"
        )

    def _guarded(self, call):
        """Apply the schedule's effect at now() around one delegate."""
        with self._chaos_lock:
            self.chaos_stats.calls += 1
        effect = self.schedule.effect_at(self.clock.now())
        if effect.clean:
            return call()
        with get_tracer().span("chaos.window", source=self.name,
                               down=effect.down):
            if effect.down:
                self._fail("is in an outage window")
            if self.schedule.draw_failure(effect.failure_rate):
                self._fail("dropped the request (error burst)")
            if effect.extra_latency_s:
                with self._chaos_lock:
                    self.chaos_stats.injected_latency_s += \
                        effect.extra_latency_s
                get_metrics().counter(
                    f"chaos.injected_latency_s.{self.name}"
                ).inc(effect.extra_latency_s)
                self.clock.advance(effect.extra_latency_s)
            if effect.latency_factor > 1.0:
                started = self.clock.now()
                result = call()
                slowdown = ((self.clock.now() - started)
                            * (effect.latency_factor - 1.0))
                with self._chaos_lock:
                    self.chaos_stats.injected_latency_s += slowdown
                self.clock.advance(slowdown)
                return result
            return call()

    def fetch_many(self, kind: str, keys) -> dict[str, object]:
        key_list = list(keys)
        return self._guarded(
            lambda: self.inner.fetch_many(kind, key_list)
        )

    def scan_keys(self, kind: str) -> list[str]:
        return self._guarded(lambda: self.inner.scan_keys(kind))


# -- scenario library -----------------------------------------------------

#: Named scenarios for ``repro chaos`` and experiment E12. Each maps the
#: three standard dataset sources to a schedule factory taking a seed.
SCENARIOS = ("calm", "blackout", "flaky", "rushhour", "cascade")


def scenario_schedules(name: str, seed: int = 0,
                       ) -> dict[str, FaultSchedule]:
    """Fault schedules per source name for a named scenario.

    ``calm``     — no faults anywhere (the control arm).
    ``blackout`` — the annotation service goes completely dark for a
                   long window; structures stay healthy.
    ``flaky``    — every source suffers staggered error bursts.
    ``rushhour`` — latency spikes everywhere plus a flapping activity
                   service (the overloaded-backend picture).
    ``cascade``  — an outage rolls from source to source, with error
                   bursts trailing each recovery.
    """
    if name not in SCENARIOS:
        raise SourceError(
            f"unknown chaos scenario {name!r} (known: {SCENARIOS})"
        )
    if name == "calm":
        return {
            "pdb-sim": FaultSchedule(seed=seed),
            "chembl-sim": FaultSchedule(seed=seed + 1),
            "go-sim": FaultSchedule(seed=seed + 2),
        }
    if name == "blackout":
        return {
            "pdb-sim": FaultSchedule(seed=seed),
            "chembl-sim": FaultSchedule(seed=seed + 1),
            "go-sim": FaultSchedule(
                [Outage(2.0, 120.0)], seed=seed + 2,
            ),
        }
    if name == "flaky":
        return {
            "pdb-sim": FaultSchedule(
                [ErrorBurst(1.0, 40.0, failure_rate=0.5),
                 ErrorBurst(60.0, 90.0, failure_rate=0.7)],
                seed=seed,
            ),
            "chembl-sim": FaultSchedule(
                [ErrorBurst(10.0, 55.0, failure_rate=0.5)],
                seed=seed + 1,
            ),
            "go-sim": FaultSchedule(
                [ErrorBurst(20.0, 70.0, failure_rate=0.6)],
                seed=seed + 2,
            ),
        }
    if name == "rushhour":
        return {
            "pdb-sim": FaultSchedule(
                [LatencySpike(0.0, 90.0, factor=4.0)], seed=seed,
            ),
            "chembl-sim": FaultSchedule(
                [Flapping(5.0, 80.0, period_s=4.0, duty=0.4),
                 LatencySpike(0.0, 90.0, extra_s=0.05)],
                seed=seed + 1,
            ),
            "go-sim": FaultSchedule(
                [LatencySpike(0.0, 90.0, factor=2.0, extra_s=0.02)],
                seed=seed + 2,
            ),
        }
    # cascade: outage rolls pdb -> chembl -> go.
    return {
        "pdb-sim": FaultSchedule(
            [Outage(2.0, 25.0), ErrorBurst(25.0, 40.0, 0.4)],
            seed=seed,
        ),
        "chembl-sim": FaultSchedule(
            [Outage(25.0, 50.0), ErrorBurst(50.0, 65.0, 0.4)],
            seed=seed + 1,
        ),
        "go-sim": FaultSchedule(
            [Outage(50.0, 75.0), ErrorBurst(75.0, 90.0, 0.4)],
            seed=seed + 2,
        ),
    }


def wrap_registry(registry, schedules: dict[str, FaultSchedule],
                  timeout_s: float = 0.25):
    """A new registry with each source wrapped in its schedule's chaos.

    Sources without a schedule (or with an empty one) are passed through
    unwrapped, keeping the happy path allocation-free.
    """
    from repro.sources.registry import SourceRegistry

    wrapped = SourceRegistry()
    for source in registry.sources():
        schedule = schedules.get(source.name)
        if schedule is None or not schedule.events:
            wrapped.register(source)
        else:
            wrapped.register(ChaosSource(source, schedule,
                                         timeout_s=timeout_s))
    return wrapped
