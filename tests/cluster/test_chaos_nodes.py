"""Node-level chaos: deterministic fault windows, replayable scenarios."""

import pytest

from repro.cluster import node as node_module
from repro.cluster.node import ClusterNode, VersionedRow
from repro.errors import ChaosError, NodeDownError
from repro.faults import (
    SCENARIOS,
    ErrorBurst,
    FaultSchedule,
    LatencySpike,
    Outage,
    scenario_schedule,
)
from repro.sources.clock import SimulatedClock

NODE_IDS = ("node-0", "node-1", "node-2", "node-3", "node-4")
NODE_SCENARIOS = [name for name, level in SCENARIOS.items()
                  if level == "node"]


class TestFaultWindows:
    def test_crash_window_is_half_open(self):
        crash = Outage(2.0, 5.0, target="node-1")
        assert crash.covers("node-1")
        assert not crash.down_at(1.9)
        assert crash.down_at(2.0)
        assert crash.down_at(4.9)
        assert not crash.down_at(5.0)
        assert not crash.covers("node-2")

    def test_partition_cuts_only_members(self):
        schedule = FaultSchedule((
            Outage(1.0, 9.0, target=frozenset({"node-0", "node-2"})),
        ))
        assert schedule.effect_for("node-0", 5.0).down
        assert schedule.effect_for("node-2", 5.0).down
        assert not schedule.effect_for("node-1", 5.0).down

    def test_partition_needs_members(self):
        with pytest.raises(ChaosError):
            Outage(1.0, 2.0, target=frozenset())

    def test_bad_windows_rejected(self):
        with pytest.raises(ChaosError):
            Outage(5.0, 5.0, target="node-0")
        with pytest.raises(ChaosError):
            Outage(-1.0, 5.0, target="node-0")
        with pytest.raises(ChaosError):
            LatencySpike(1.0, 2.0, extra_s=0.0, target="node-0")

    def test_slow_node_extra_latency(self):
        schedule = FaultSchedule((
            LatencySpike(1.0, 4.0, extra_s=0.25, target="node-3"),
        ))
        assert schedule.effect_for("node-3", 2.0).extra_latency_s == 0.25
        assert schedule.effect_for("node-3", 4.0).extra_latency_s == 0.0
        assert schedule.effect_for("node-1", 2.0).extra_latency_s == 0.0


class TestSchedule:
    def test_effects_fold_over_events(self):
        schedule = FaultSchedule((
            Outage(2.0, 5.0, target="node-0"),
            LatencySpike(0.0, 10.0, extra_s=0.1, target="node-1"),
            LatencySpike(0.0, 10.0, extra_s=0.2, target="node-1"),
        ))
        assert schedule.effect_for("node-0", 3.0).down
        assert not schedule.effect_for("node-0", 6.0).down
        # Overlapping slow windows stack.
        assert schedule.effect_for("node-1", 1.0).extra_latency_s == \
            pytest.approx(0.3)

    def test_horizon_covers_last_window(self):
        schedule = FaultSchedule((
            Outage(2.0, 5.0, target="node-0"),
            LatencySpike(1.0, 12.0, extra_s=0.05, target="node-1"),
        ))
        assert schedule.horizon_s() == 12.0
        assert FaultSchedule().horizon_s() == 0.0

    def test_shifted_moves_every_window(self):
        schedule = FaultSchedule(
            (Outage(2.0, 5.0, target="node-0"),), seed=7,
        )
        shifted = schedule.shifted(100.0)
        assert shifted.seed == 7
        assert not shifted.effect_for("node-0", 3.0).down
        assert shifted.effect_for("node-0", 103.0).down
        assert not shifted.effect_for("node-0", 105.0).down
        assert not shifted.effect_for("node-1", 103.0).down


class TestScenarios:
    @pytest.mark.parametrize("name", NODE_SCENARIOS)
    def test_same_seed_same_schedule(self, name):
        first = scenario_schedule(name, 5, NODE_IDS)
        second = scenario_schedule(name, 5, NODE_IDS)
        assert first.events == second.events

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ChaosError, match="unknown chaos scenario"):
            scenario_schedule("meteor_strike", 0, NODE_IDS)

    def test_needs_nodes(self):
        with pytest.raises(ChaosError):
            scenario_schedule("node_crash")

    def test_calm_has_no_events(self):
        assert scenario_schedule("node_calm", 0, NODE_IDS).events == ()

    def test_crash_picks_one_victim(self):
        schedule = scenario_schedule("node_crash", 3, NODE_IDS)
        (crash,) = schedule.events
        assert isinstance(crash, Outage)
        assert crash.target in NODE_IDS

    def test_split_brain_cuts_half(self):
        schedule = scenario_schedule("split_brain", 3, NODE_IDS)
        (cut,) = schedule.events
        assert isinstance(cut, Outage)
        assert len(cut.target) == len(NODE_IDS) // 2
        assert cut.target <= set(NODE_IDS)


class TestNodeRpcBehaviour:
    def test_crashed_node_charges_timeout_and_raises(self, monkeypatch):
        monkeypatch.setattr(node_module, "RPC_TIMEOUT_S", 0.5)
        clock = SimulatedClock()
        node = ClusterNode("node-0", clock,
                           schedule=FaultSchedule(
                               (Outage(0.0, 10.0, target="node-0"),)
                           ))
        before = clock.now()
        with pytest.raises(NodeDownError):
            node.get_partition(0)
        assert clock.now() - before == pytest.approx(0.5)
        assert node.failed_rpcs == 1
        assert node.is_down()

    def test_slow_node_charges_extra_latency(self, monkeypatch):
        monkeypatch.setattr(node_module, "BASE_LATENCY_S", 0.01)
        clock = SimulatedClock()
        node = ClusterNode("node-0", clock,
                           schedule=FaultSchedule(
                               (LatencySpike(0.0, 10.0, extra_s=0.2,
                                             target="node-0"),)
                           ))
        before = clock.now()
        node.put(0, "bindings", 0, VersionedRow(1, ("x",)))
        assert clock.now() - before == pytest.approx(0.21)
        assert not node.is_down()

    def test_healed_node_answers_again(self):
        clock = SimulatedClock()
        node = ClusterNode("node-0", clock,
                           schedule=FaultSchedule(
                               (Outage(0.0, 1.0, target="node-0"),)
                           ))
        with pytest.raises(NodeDownError):
            node.get_partition(0)
        clock.advance(2.0)
        assert node.get_partition(0) == {}

    def test_newer_version_wins_at_the_replica(self):
        clock = SimulatedClock()
        node = ClusterNode("node-0", clock)
        node.put(0, "bindings", 0, VersionedRow(2, ("new",)))
        node.put(0, "bindings", 0, VersionedRow(1, ("old",)))
        assert node.get_partition(0)[("bindings", 0)].row == ("new",)
        assert node.key_count(0) == 1

    def test_latency_factor_stretches_the_base_latency(self, monkeypatch):
        monkeypatch.setattr(node_module, "BASE_LATENCY_S", 0.01)
        clock = SimulatedClock()
        node = ClusterNode("node-0", clock,
                           schedule=FaultSchedule(
                               (LatencySpike(0.0, 10.0, factor=3.0,
                                             target="node-0"),)
                           ))
        node.get_partition(0)
        assert clock.now() == pytest.approx(0.03)

    def test_error_burst_drops_rpcs_per_the_seeded_stream(self):
        def outcomes(seed):
            clock = SimulatedClock()
            node = ClusterNode("node-0", clock, schedule=FaultSchedule(
                (ErrorBurst(0.0, 1000.0, 0.5, target="node-0"),),
                seed=seed,
            ))
            seen = []
            for _ in range(20):
                try:
                    node.get_partition(0)
                    seen.append("ok")
                except NodeDownError:
                    seen.append("fail")
            assert node.failed_rpcs == seen.count("fail")
            assert not node.is_down()  # flaky, not dead
            return seen

        assert outcomes(7) == outcomes(7)
        assert {"ok", "fail"} == set(outcomes(7))
        assert outcomes(7) != outcomes(8)
