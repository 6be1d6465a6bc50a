"""Fault injection at the source layer: :class:`ChaosSource`.

Applies a :class:`~repro.faults.FaultSchedule` to any source that
speaks the uniform dialect — the source-layer consumer of the fault
plane, beside :class:`~repro.cluster.node.ClusterNode` (nodes) and
:class:`~repro.storage.durable.db.Database` (store crashes). Every
effect is driven by the
:class:`~repro.sources.clock.SimulatedClock` and the schedule's seeded
RNG, so the same ``(seed, schedule)`` pair replays the exact same
failure timeline, round-trip for round-trip — which is what lets
experiment E12 compare resilience policies under *identical* fault
injections. Outside every window the wrapper is pass-through (the
zero-overhead happy path).
"""

from __future__ import annotations

import threading
from collections.abc import Iterable
from dataclasses import dataclass

from repro.errors import SourceError, SourceUnavailableError
from repro.faults import CLEAN, FaultSchedule
from repro.obs import get_metrics, get_tracer
from repro.sources.base import DataSource


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


class ChaosSource:
    """Applies a :class:`~repro.faults.FaultSchedule` to one source.

    Speaks the uniform dialect by delegating to *inner*. A call landing
    in a down window charges ``timeout_s`` of virtual latency (a real
    client pays for its timeouts) and raises
    :class:`SourceUnavailableError`; a call in a latency window pays
    the extra/multiplied cost; a call in an error burst fails per the
    schedule's seeded RNG. Outside every window the wrapper delegates
    untouched.
    """

    def __init__(self, inner: DataSource, schedule: FaultSchedule,
                 timeout_s: float = 0.25) -> None:
        if timeout_s < 0:
            raise SourceError("chaos timeout must be >= 0")
        self.inner = inner
        self.schedule = schedule
        self.timeout_s = timeout_s
        self.chaos_stats = ChaosStats()
        # Caller threads may hit the same wrapper concurrently; stats
        # increments are read-modify-writes and need the guard.  Clock
        # charges stay outside it so waiters never pay for advances.
        self._chaos_lock = threading.Lock()

    @property
    def name(self) -> str:
        return self.inner.name

    @property
    def clock(self):
        return self.inner.clock

    @property
    def stats(self):
        return self.inner.stats

    @property
    def page_size(self) -> int:
        return self.inner.page_size

    def kinds(self) -> frozenset[str]:
        return self.inner.kinds()

    def __repr__(self) -> str:
        return f"ChaosSource({self.inner!r})"

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
        effect = self.schedule.effect_for(self.name, self.clock.now())
        if effect == CLEAN:
            return call()
        with get_tracer().span("chaos.window", source=self.name,
                               down=effect.down):
            if effect.down:
                self._fail("is in an outage window")
            if self.schedule.draw_failure(self.name,
                                          effect.failure_rate):
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

    def fetch_many(self, kind: str,
                   keys: Iterable[str]) -> dict[str, object]:
        key_list = list(keys)
        return self._guarded(
            lambda: self.inner.fetch_many(kind, key_list)
        )

    def fetch(self, kind: str, key: str) -> object | None:
        return self.fetch_many(kind, [key]).get(key)

    def scan_keys(self, kind: str) -> list[str]:
        return self._guarded(lambda: self.inner.scan_keys(kind))


def wrap_registry(registry, schedule: FaultSchedule,
                  timeout_s: float = 0.25):
    """A new registry with *schedule*'s chaos on the sources it touches.

    The schedule's windows name their sources (an untargeted window
    touches every source). Sources no window ever covers are passed
    through unwrapped, keeping the happy path allocation-free.
    """
    from repro.sources.registry import SourceRegistry

    wrapped = SourceRegistry()
    for source in registry.sources():
        if not schedule.touches(source.name):
            wrapped.register(source)
        else:
            wrapped.register(ChaosSource(source, schedule,
                                         timeout_s=timeout_s))
    return wrapped
