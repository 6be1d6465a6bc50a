"""One fault plane: seeded fault events for sources, nodes and the store.

The paper's pain point — "data is being obtained from multiple sources"
— is really about surviving *flaky* services, so whole failure
scenarios are first-class and replayable. A :class:`FaultSchedule` is a
composition of windows in **virtual time**, each naming its *target*: a
source name, a cluster node id, a set of them, or nobody in particular
(the window then hits whoever consults the schedule). Four shapes cover
sources and nodes:

* :class:`Outage` — the target answers nothing: a source outage, a node
  crash, or (with a set target) a network partition, which is exactly
  how replicas diverge;
* :class:`Flapping` — up/down phases, a service crash-looping behind a
  load balancer;
* :class:`LatencySpike` — the target answers, slowly (gray failure);
* :class:`ErrorBurst` — calls fail with a probability drawn from the
  schedule's seeded per-target stream.

A fifth event, :class:`Crash`, kills the durable store at one of its
:data:`CRASH_POINTS` — once, by raising :exc:`CrashPoint`.

Windows compose: a spike overlapping a burst yields slow *and* flaky
round-trips. The schedule is plain data — the effect on a target at
time *t* is a fold over the windows covering it — so the same
``(seed, schedule)`` replays the same failure timeline round-trip for
round-trip. Its three consumers are
:class:`~repro.sources.chaos.ChaosSource`,
:class:`~repro.cluster.node.ClusterNode` and
:class:`~repro.storage.durable.db.Database`; :func:`scenario_schedule`
builds the named scenarios ``repro chaos`` replays.
"""

from __future__ import annotations

import difflib
import random
from collections.abc import Iterable
from dataclasses import dataclass, field, fields, replace

from repro.errors import ChaosError


def _check_window(start_s: float, end_s: float) -> None:
    if start_s < 0 or end_s <= start_s:
        raise ChaosError(
            f"fault window [{start_s}, {end_s}) is not a valid "
            "virtual-time interval"
        )


@dataclass(frozen=True)
class FaultWindow:
    """``[start_s, end_s)`` of virtual time during which *target* suffers.

    ``target`` is a source name, a node id, a frozenset of them, or
    ``None`` for whoever consults the schedule (a schedule handed to
    one :class:`~repro.sources.chaos.ChaosSource` needs no names).
    """

    start_s: float
    end_s: float
    target: str | frozenset[str] | None = field(default=None,
                                                kw_only=True)

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.end_s)
        if isinstance(self.target, frozenset) and not self.target:
            raise ChaosError("a fault window's target set cannot be empty")

    def names(self) -> tuple[str, ...]:
        """The targets this window names, in a stable order."""
        if self.target is None:
            return ()
        if isinstance(self.target, frozenset):
            return tuple(sorted(self.target))
        return (self.target,)

    def covers(self, target: str) -> bool:
        return self.target is None or target in self.names()

    def active_at(self, t: float) -> bool:
        return self.start_s <= t < self.end_s


@dataclass(frozen=True)
class Outage(FaultWindow):
    """The target is dark for the whole window: every call times out."""

    def down_at(self, t: float) -> bool:
        return self.active_at(t)


@dataclass(frozen=True)
class Flapping(FaultWindow):
    """The target alternates up/down inside the window.

    Each ``period_s`` starts with a down phase lasting ``duty`` of the
    period.
    """

    period_s: float = 2.0
    duty: float = 0.5

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.period_s <= 0:
            raise ChaosError("flapping period must be positive")
        if not 0.0 < self.duty < 1.0:
            raise ChaosError("flapping duty must be in (0, 1)")

    def down_at(self, t: float) -> bool:
        if not self.active_at(t):
            return False
        phase = (t - self.start_s) % self.period_s
        return phase < self.period_s * self.duty


@dataclass(frozen=True)
class LatencySpike(FaultWindow):
    """Calls inside the window cost extra virtual latency."""

    extra_s: float = 0.0
    #: Multiplier applied to the call's own virtual cost.
    factor: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.extra_s < 0:
            raise ChaosError("latency spike extra must be >= 0")
        if self.factor < 1.0:
            raise ChaosError("latency spike factor must be >= 1")
        if self.extra_s == 0 and self.factor == 1.0:
            raise ChaosError("latency spike must slow something: "
                             "extra_s > 0 or factor > 1")


@dataclass(frozen=True)
class ErrorBurst(FaultWindow):
    """Calls inside the window fail with the given probability."""

    failure_rate: float = 0.5

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.failure_rate <= 1.0:
            raise ChaosError("error-burst rate must be in (0, 1]")


#: Where the durable store can be killed: mid-append (half a WAL frame
#: reaches the disk), after a record's WAL append, and after a flush's
#: or a compaction's segment is written but before the manifest adopts
#: it.
CRASH_POINTS = ("wal.append.torn", "db.after_append",
                "flush.before_manifest", "compact.before_manifest")


class CrashPoint(Exception):
    """A simulated process kill at a named crash point.

    Deliberately **not** a :class:`~repro.errors.DrugTreeError`: nothing
    in the library may catch and survive a simulated kill, the way a
    real ``kill -9`` cannot be caught. The caller reopens the store from
    disk, as a restarted process would.
    """


@dataclass(frozen=True)
class Crash:
    """Kill the store the schedule is installed on when it reaches *at*.

    Fires once; it has no window and no target, so it never changes a
    source's or a node's effect.
    """

    at: str

    def __post_init__(self) -> None:
        if self.at not in CRASH_POINTS:
            raise ChaosError(
                f"unknown crash point {self.at!r} "
                f"(one of {', '.join(CRASH_POINTS)})"
            )


@dataclass(frozen=True)
class FaultEffect:
    """The combined fault state of one target at one instant."""

    down: bool = False
    extra_latency_s: float = 0.0
    latency_factor: float = 1.0
    failure_rate: float = 0.0


#: No window is active: consumers delegate untouched.
CLEAN = FaultEffect()


class FaultSchedule:
    """A composable, seeded set of fault windows and crashes.

    Error-burst draws come from one RNG stream per target: the *n*-th
    distinct target the windows name draws from ``Random(seed + n)``,
    anyone else (reached through untargeted windows) from
    ``Random(seed)`` — so one target's traffic never shifts another's
    victim sequence. Each :class:`Crash` fires once per schedule.
    """

    def __init__(self, events: Iterable[FaultWindow | Crash] = (),
                 seed: int = 0) -> None:
        self.events = tuple(events)
        self.seed = seed
        windows = [e for e in self.events if isinstance(e, FaultWindow)]
        #: Crash points still armed; :meth:`crash_at` consumes them.
        self._crashes = [e.at for e in self.events if isinstance(e, Crash)]
        named = dict.fromkeys(name for event in windows
                              for name in event.names())
        self._windows = {
            name: tuple(e for e in windows if e.covers(name))
            for name in named
        }
        self._untargeted = tuple(e for e in windows if e.target is None)
        self._streams = {name: random.Random(seed + n)
                         for n, name in enumerate(named)}
        self._rng = random.Random(seed)

    def touches(self, target: str) -> bool:
        """Whether any window, at any time, covers *target*."""
        return bool(self._windows.get(target, self._untargeted))

    def effect_for(self, target: str, now: float) -> FaultEffect:
        """Merge every window covering *target* at virtual time *now*."""
        down = False
        extra = 0.0
        factor = 1.0
        failure_rate = 0.0
        # An empty schedule is one dict miss and an empty loop: this
        # sits on every node RPC.
        for event in self._windows.get(target, self._untargeted):
            if not event.active_at(now):
                continue
            if isinstance(event, LatencySpike):
                extra += event.extra_s
                factor *= event.factor
            elif isinstance(event, ErrorBurst):
                failure_rate = max(failure_rate, event.failure_rate)
            elif event.down_at(now):  # Outage, Flapping
                down = True
        if not (down or extra or failure_rate) and factor == 1.0:
            return CLEAN
        return FaultEffect(down, extra, factor, failure_rate)

    def draw_failure(self, target: str, rate: float) -> bool:
        """One seeded Bernoulli draw from *target*'s stream."""
        return (rate > 0
                and self._streams.get(target, self._rng).random() < rate)

    def crash_at(self, point: str) -> bool:
        """Whether a pending :class:`Crash` names *point*; consumes it."""
        if point in self._crashes:
            self._crashes.remove(point)
            return True
        return False

    def horizon_s(self) -> float:
        """Virtual time at which the last window ends."""
        return max((event.end_s for event in self.events
                    if isinstance(event, FaultWindow)), default=0.0)

    def shifted(self, offset_s: float) -> "FaultSchedule":
        """The same schedule with every window moved by *offset_s*.

        Scenario windows are authored relative to t=0; replays shift
        them to whatever the clock reads when the replay starts (e.g.
        after cluster seeding has already consumed virtual time).
        """
        return FaultSchedule(
            tuple(replace(event, start_s=event.start_s + offset_s,
                          end_s=event.end_s + offset_s)
                  if isinstance(event, FaultWindow) else event
                  for event in self.events),
            seed=self.seed,
        )

    def describe(self) -> list[str]:
        lines = []
        for event in self.events:
            if isinstance(event, Crash):
                lines.append(f"Crash at {event.at}")
                continue
            knobs = "".join(
                f" {f.name}={getattr(event, f.name):g}"
                for f in fields(event)[len(fields(FaultWindow)):]
            )
            lines.append(
                f"{type(event).__name__} "
                f"{', '.join(event.names()) or '*'} "
                f"[{event.start_s:g}, {event.end_s:g}){knobs}"
            )
        return lines

    def __repr__(self) -> str:
        return (f"FaultSchedule({len(self.events)} events, "
                f"seed={self.seed})")


# -- scenario table -------------------------------------------------------

#: The named scenarios of ``repro chaos`` and experiments E12/E16, each
#: with the layer its windows target: ``"source"`` scenarios hit the
#: three standard dataset sources, ``"node"`` scenarios hit cluster
#: nodes picked by the seed.
SCENARIOS = {
    "calm": "source", "blackout": "source", "flaky": "source",
    "rushhour": "source", "cascade": "source",
    "node_calm": "node", "node_crash": "node", "split_brain": "node",
    "slow_node": "node",
}

_PDB, _CHEMBL, _GO = "pdb-sim", "chembl-sim", "go-sim"


def scenario_schedule(name: str, seed: int = 0,
                      node_ids: tuple[str, ...] = ()) -> FaultSchedule:
    """The seed-replayable schedule of a named scenario.

    ``calm`` / ``node_calm`` — no faults anywhere (the control arms).
    ``blackout``    — the annotation service goes completely dark for
                      a long window; structures stay healthy.
    ``flaky``       — every source suffers staggered error bursts.
    ``rushhour``    — latency spikes everywhere plus a flapping
                      activity service (the overloaded backend).
    ``cascade``     — an outage rolls from source to source, with
                      error bursts trailing each recovery.
    ``node_crash``  — one of *node_ids* crashes for 60 s.
    ``split_brain`` — half of *node_ids* is cut off from the router.
    ``slow_node``   — one of *node_ids* answers 0.1–0.3 s late.
    """
    if name not in SCENARIOS:
        close = difflib.get_close_matches(name, SCENARIOS, n=1,
                                          cutoff=0.5)
        hint = f"; did you mean {close[0]!r}?" if close else ""
        raise ChaosError(
            f"unknown chaos scenario {name!r}{hint}\n"
            f"known scenarios: {', '.join(SCENARIOS)}"
        )
    node_ids = tuple(node_ids)
    if SCENARIOS[name] == "node" and not node_ids:
        raise ChaosError("node scenario needs at least one node")
    rng = random.Random(seed)
    events: tuple[FaultWindow, ...] = ()
    if name == "blackout":
        events = (Outage(2.0, 120.0, target=_GO),)
    elif name == "flaky":
        events = (
            ErrorBurst(1.0, 40.0, failure_rate=0.5, target=_PDB),
            ErrorBurst(60.0, 90.0, failure_rate=0.7, target=_PDB),
            ErrorBurst(10.0, 55.0, failure_rate=0.5, target=_CHEMBL),
            ErrorBurst(20.0, 70.0, failure_rate=0.6, target=_GO),
        )
    elif name == "rushhour":
        events = (
            LatencySpike(0.0, 90.0, factor=4.0, target=_PDB),
            Flapping(5.0, 80.0, period_s=4.0, duty=0.4, target=_CHEMBL),
            LatencySpike(0.0, 90.0, extra_s=0.05, target=_CHEMBL),
            LatencySpike(0.0, 90.0, factor=2.0, extra_s=0.02,
                         target=_GO),
        )
    elif name == "cascade":  # the outage rolls pdb -> chembl -> go
        events = (
            Outage(2.0, 25.0, target=_PDB),
            ErrorBurst(25.0, 40.0, 0.4, target=_PDB),
            Outage(25.0, 50.0, target=_CHEMBL),
            ErrorBurst(50.0, 65.0, 0.4, target=_CHEMBL),
            Outage(50.0, 75.0, target=_GO),
            ErrorBurst(75.0, 90.0, 0.4, target=_GO),
        )
    elif name == "node_crash":
        victim = node_ids[rng.randrange(len(node_ids))]
        start = 2.0 + rng.random() * 3.0
        events = (Outage(start, start + 60.0, target=victim),)
    elif name == "split_brain":
        cut = frozenset(rng.sample(node_ids, max(1, len(node_ids) // 2)))
        events = (Outage(4.0, 40.0, target=cut),)
    elif name == "slow_node":
        victim = node_ids[rng.randrange(len(node_ids))]
        events = (LatencySpike(1.0, 80.0,
                               extra_s=0.1 + rng.random() * 0.2,
                               target=victim),)
    return FaultSchedule(events, seed=seed)
