"""Deterministic fault injection: schedules, windows, replayability."""

import pytest

from repro.errors import ChaosError, DrugTreeError, SourceUnavailableError
from repro.faults import (
    CLEAN,
    SCENARIOS,
    Crash,
    CrashPoint,
    ErrorBurst,
    FaultSchedule,
    Flapping,
    LatencySpike,
    Outage,
    scenario_schedule,
)
from repro.obs import MetricsRegistry, set_metrics
from repro.sources import (
    ChaosSource,
    LatencyModel,
    SimulatedClock,
    SourceRegistry,
    TableBackedSource,
    wrap_registry,
)
from repro.sources.chaos import CHAOS_TIMEOUT_S

SOURCES = ("pdb-sim", "chembl-sim", "go-sim")
SOURCE_SCENARIOS = [name for name, level in SCENARIOS.items()
                    if level == "source"]


@pytest.fixture(autouse=True)
def fresh_metrics():
    set_metrics(MetricsRegistry())
    yield
    set_metrics(MetricsRegistry())


def make_source(clock, kind="alpha", n=20, base_s=0.1):
    tables = {kind: {f"{kind}{i}": f"v{i}" for i in range(n)}}
    return TableBackedSource(
        f"{kind}-src", clock, tables,
        latency=LatencyModel(base_s=base_s, per_item_s=0.0,
                             jitter_fraction=0.0),
        page_size=100,
    )


class TestWindows:
    def test_outage_covers_half_open_interval(self):
        outage = Outage(1.0, 3.0)
        assert not outage.down_at(0.5)
        assert outage.down_at(1.0)
        assert outage.down_at(2.999)
        assert not outage.down_at(3.0)

    def test_invalid_window_rejected(self):
        with pytest.raises(ChaosError):
            Outage(3.0, 1.0)
        with pytest.raises(ChaosError):
            Outage(-1.0, 1.0)

    def test_flapping_phases(self):
        flap = Flapping(0.0, 10.0, period_s=2.0, duty=0.5)
        # Each period starts down for duty * period seconds.
        assert flap.down_at(0.0)
        assert flap.down_at(0.9)
        assert not flap.down_at(1.0)
        assert flap.down_at(2.5)
        assert not flap.down_at(3.5)
        assert not flap.down_at(10.0)  # outside the window

    def test_latency_spike_validation(self):
        with pytest.raises(ChaosError):
            LatencySpike(0.0, 1.0, extra_s=-0.1)
        with pytest.raises(ChaosError):
            LatencySpike(0.0, 1.0, factor=0.5)
        with pytest.raises(ChaosError):
            LatencySpike(0.0, 1.0)  # slows nothing

    def test_error_burst_rate_validation(self):
        with pytest.raises(ChaosError):
            ErrorBurst(0.0, 1.0, failure_rate=0.0)
        with pytest.raises(ChaosError):
            ErrorBurst(0.0, 1.0, failure_rate=1.5)


class TestEffectMerging:
    def test_clean_outside_all_windows(self):
        schedule = FaultSchedule([Outage(5.0, 6.0)])
        assert schedule.effect_for("any", 0.0) == CLEAN
        assert schedule.effect_for("any", 5.5) != CLEAN

    def test_overlapping_windows_compose(self):
        schedule = FaultSchedule([
            LatencySpike(0.0, 10.0, extra_s=0.1),
            LatencySpike(5.0, 10.0, factor=2.0),
            ErrorBurst(5.0, 10.0, failure_rate=0.3),
        ])
        effect = schedule.effect_for("any", 7.0)
        assert effect.extra_latency_s == pytest.approx(0.1)
        assert effect.latency_factor == pytest.approx(2.0)
        assert effect.failure_rate == pytest.approx(0.3)
        early = schedule.effect_for("any", 2.0)
        assert early.latency_factor == 1.0
        assert early.failure_rate == 0.0

    def test_horizon(self):
        schedule = FaultSchedule([Outage(1.0, 4.0),
                                  ErrorBurst(2.0, 9.0, 0.5)])
        assert schedule.horizon_s() == 9.0
        assert FaultSchedule().horizon_s() == 0.0


class TestChaosSource:
    def test_outage_charges_timeout_and_raises(self):
        clock = SimulatedClock()
        source = make_source(clock)
        chaos = ChaosSource(source, FaultSchedule([Outage(0.0, 10.0)]))
        before = clock.now()
        with pytest.raises(SourceUnavailableError):
            chaos.fetch_many("alpha", ["alpha0"])
        assert clock.now() - before == pytest.approx(0.25)
        assert chaos.chaos_stats.injected_failures == 1

    def test_clean_time_is_pass_through(self):
        clock = SimulatedClock()
        source = make_source(clock)
        chaos = ChaosSource(source, FaultSchedule([Outage(50.0, 60.0)]))
        out = chaos.fetch_many("alpha", ["alpha0"])
        assert out == {"alpha0": "v0"}
        assert clock.now() == pytest.approx(0.1)  # only source latency
        assert chaos.chaos_stats.injected_failures == 0

    def test_extra_latency_charged(self):
        clock = SimulatedClock()
        source = make_source(clock, base_s=0.1)
        chaos = ChaosSource(
            source,
            FaultSchedule([LatencySpike(0.0, 10.0, extra_s=0.5)]),
        )
        chaos.fetch_many("alpha", ["alpha0"])
        assert clock.now() == pytest.approx(0.6)

    def test_latency_factor_multiplies_inner_cost(self):
        clock = SimulatedClock()
        source = make_source(clock, base_s=0.1)
        chaos = ChaosSource(
            source,
            FaultSchedule([LatencySpike(0.0, 10.0, factor=3.0)]),
        )
        chaos.fetch_many("alpha", ["alpha0"])
        assert clock.now() == pytest.approx(0.3)

    def test_error_burst_is_seeded(self):
        clock = SimulatedClock()
        source = make_source(clock)
        chaos = ChaosSource(
            source,
            FaultSchedule([ErrorBurst(0.0, 1000.0, failure_rate=0.5)],
                          seed=7),
        )
        outcomes = []
        for _ in range(20):
            try:
                chaos.fetch_many("alpha", ["alpha0"])
                outcomes.append("ok")
            except SourceUnavailableError:
                outcomes.append("fail")
        assert "ok" in outcomes and "fail" in outcomes


class TestDeterminism:
    def _run(self, seed):
        """One full chaotic session; returns (timeline, outcomes, stats)."""
        clock = SimulatedClock()
        source = make_source(clock)
        chaos = ChaosSource(
            source,
            FaultSchedule(
                [Outage(1.0, 2.0),
                 ErrorBurst(3.0, 8.0, failure_rate=0.5),
                 LatencySpike(8.0, 12.0, extra_s=0.2)],
                seed=seed,
            ),
        )
        timeline = []
        outcomes = []
        for step in range(24):
            try:
                chaos.fetch_many("alpha", [f"alpha{step % 5}"])
                outcomes.append("ok")
            except SourceUnavailableError:
                outcomes.append("fail")
            clock.advance(0.3)
            timeline.append(round(clock.now(), 9))
        return timeline, outcomes, chaos.chaos_stats.snapshot(), \
            source.stats.roundtrips

    def test_same_seed_replays_bit_identically(self):
        first = self._run(seed=11)
        second = self._run(seed=11)
        assert first == second

    def test_different_seed_changes_burst_victims(self):
        _, outcomes_a, __, ___ = self._run(seed=11)
        _, outcomes_b, __, ___ = self._run(seed=12)
        # Outage/latency windows are identical; only the error-burst
        # draws may differ. With 0.5 rate over several calls they do.
        assert outcomes_a != outcomes_b


    def test_each_named_target_draws_from_its_own_stream(self):
        """The n-th target a schedule names draws from Random(seed+n),
        an unnamed consumer from Random(seed) — what the per-source
        schedules of the scenario table were seeded with."""
        import random

        schedule = scenario_schedule("flaky", seed=40)
        expected = {name: random.Random(40 + n)
                    for n, name in enumerate(SOURCES)}
        # Interleaved traffic: one target's draws never shift another's.
        for name in ("go-sim", "pdb-sim", "go-sim", "chembl-sim",
                     "pdb-sim", "go-sim"):
            assert schedule.draw_failure(name, 0.5) == \
                (expected[name].random() < 0.5)
        lone = FaultSchedule([ErrorBurst(0.0, 9.0, 0.5)], seed=40)
        stream = random.Random(40)
        assert [lone.draw_failure("anyone", 0.5) for _ in range(8)] == \
            [stream.random() < 0.5 for _ in range(8)]
        assert not lone.draw_failure("anyone", 0.0)


class TestScenarios:
    def test_known_scenarios_cover_standard_sources(self):
        for name in SOURCE_SCENARIOS:
            schedule = scenario_schedule(name, seed=5)
            named = {n for event in schedule.events
                     for n in event.names()}
            assert named <= set(SOURCES)
            assert all(event.target is not None
                       for event in schedule.events)
        assert {n for e in scenario_schedule("cascade").events
                for n in e.names()} == set(SOURCES)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ChaosError, match="unknown chaos scenario"):
            scenario_schedule("meteor-strike")

    def test_calm_has_no_events(self):
        assert scenario_schedule("calm").events == ()
        assert not any(scenario_schedule("calm").touches(name)
                       for name in SOURCES)

    # -- wrap_registry wraps exactly the sources the schedule touches ----

    def _registry(self):
        clock = SimulatedClock()
        registry = SourceRegistry()
        for kind in ("alpha", "beta"):
            registry.register(make_source(clock, kind=kind))
        return registry

    def _wrapped_names(self, wrapped):
        return [source.name for source in wrapped.sources()
                if isinstance(source, ChaosSource)]

    def test_wrap_registry_skips_empty_schedules(self):
        registry = self._registry()
        wrapped = wrap_registry(registry, FaultSchedule())
        assert wrapped.sources() == registry.sources()

    def test_wrap_registry_wraps_scheduled_sources(self):
        registry = self._registry()
        wrapped = wrap_registry(
            registry, FaultSchedule([Outage(0.0, 5.0, target="alpha-src")]),
        )
        assert self._wrapped_names(wrapped) == ["alpha-src"]
        assert wrapped.sources()[1] is registry.sources()[1]
        with pytest.raises(SourceUnavailableError):
            wrapped.fetch_many("alpha", ["alpha0"])
        assert wrapped.fetch_many("beta", ["beta0"]) == {"beta0": "v0"}

    def test_wrap_registry_untargeted_window_wraps_every_source(self):
        wrapped = wrap_registry(self._registry(),
                                FaultSchedule([Outage(0.0, 5.0)]))
        assert self._wrapped_names(wrapped) == ["alpha-src", "beta-src"]
        for kind in ("alpha", "beta"):
            with pytest.raises(SourceUnavailableError):
                wrapped.fetch_many(kind, [f"{kind}0"])

    def test_wrap_registry_ignores_crashes(self):
        registry = self._registry()
        wrapped = wrap_registry(
            registry, FaultSchedule([Crash(at="db.after_append")]))
        assert wrapped.sources() == registry.sources()


class TestCrashEvents:
    """A :class:`Crash` rides in the same schedule as the windows."""

    def _schedule(self):
        return FaultSchedule([Outage(1.0, 3.0, target="pdb-sim"),
                              Crash(at="flush.before_manifest")])

    def test_describe_lists_window_and_crash(self):
        assert self._schedule().describe() == [
            "Outage pdb-sim [1, 3)",
            "Crash at flush.before_manifest",
        ]

    def test_shifted_keeps_the_crash(self):
        shifted = self._schedule().shifted(10.0)
        assert shifted.describe() == [
            "Outage pdb-sim [11, 13)",
            "Crash at flush.before_manifest",
        ]
        assert shifted.crash_at("flush.before_manifest")

    def test_touches_and_effect_for_ignore_it(self):
        schedule = self._schedule()
        assert schedule.touches("pdb-sim")
        assert not schedule.touches("go-sim")
        assert schedule.effect_for("go-sim", 2.0) == CLEAN
        assert schedule.effect_for("pdb-sim", 5.0) == CLEAN
        assert schedule.horizon_s() == 3.0
        crash_only = FaultSchedule([Crash(at="db.after_append")])
        assert not crash_only.touches("anyone")
        assert crash_only.effect_for("anyone", 0.0) == CLEAN
        assert crash_only.horizon_s() == 0.0

    def test_crash_fires_once(self):
        schedule = self._schedule()
        assert not schedule.crash_at("db.after_append")
        assert schedule.crash_at("flush.before_manifest")
        assert not schedule.crash_at("flush.before_manifest")

    def test_unknown_crash_point_rejected(self):
        with pytest.raises(ChaosError, match="unknown crash point"):
            Crash(at="wal.append.after")

    def test_crash_point_is_not_a_library_error(self):
        assert not issubclass(CrashPoint, DrugTreeError)


class TestStatsUnderContention:
    """Scheduler pages hit one ChaosSource from many threads; the
    injection counters are guarded (regression for lost updates)."""

    def test_calls_counted_exactly_once_each(self):
        import threading

        clock = SimulatedClock()
        chaos = ChaosSource(make_source(clock), FaultSchedule())

        def hammer(base):
            for step in range(25):
                chaos.fetch("alpha", f"alpha{(base + step) % 20}")

        threads = [threading.Thread(target=hammer, args=(base,))
                   for base in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert chaos.chaos_stats.calls == 200
        assert chaos.stats.roundtrips == 200  # the inner source's meter

    def test_injected_failures_counted_exactly_once_each(self):
        import threading

        clock = SimulatedClock()
        chaos = ChaosSource(
            make_source(clock),
            FaultSchedule([Outage(0.0, 10_000.0)]),
        )

        def hammer():
            for _ in range(25):
                with pytest.raises(SourceUnavailableError):
                    chaos.fetch("alpha", "alpha0")

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert chaos.chaos_stats.injected_failures == 200
        assert chaos.chaos_stats.injected_latency_s == \
            pytest.approx(200 * CHAOS_TIMEOUT_S)
