"""The scenario runner and the one fault plane behind it.

``tests/pins/*.json`` were captured at the commit before the runner
existed (``repro chaos cascade --taps 12 --json``, ``repro chaos
node_crash --taps 12 --json``, ``repro cluster --verify --json``, all
at the CLI's default world and seed); the library must reproduce them
byte for byte.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.cluster import ClusterConfig, ClusterEngine
from repro.cluster.node import ClusterNode
from repro.core import EngineConfig
from repro.errors import ChaosError, NodeDownError, SourceUnavailableError
from repro.faults import SCENARIOS, FaultSchedule, LatencySpike, Outage
from repro.obs import MetricsRegistry, get_metrics, set_metrics
from repro.scenarios import (
    run_divergence_repair,
    run_scenario,
    run_tap_session,
)
from repro.sources import (
    BreakerConfig,
    ChaosSource,
    LatencyModel,
    SimulatedClock,
    TableBackedSource,
)
from repro.workloads import DatasetConfig, build_dataset

PINS = Path(__file__).parent / "pins"
SRC = Path(__file__).parent.parent / "src"


@pytest.fixture(autouse=True)
def fresh_metrics():
    previous = get_metrics()
    set_metrics(MetricsRegistry())
    yield
    set_metrics(previous)


def world(n_leaves=40, n_ligands=80, seed=42):
    """The CLI's default world; call under a fresh metrics registry."""
    return build_dataset(DatasetConfig(n_leaves=n_leaves,
                                       n_ligands=n_ligands, seed=seed))


def dump(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def replay(name, dataset, seed, taps):
    """``repro chaos <name>`` with the CLI's default knobs."""
    return run_scenario(
        dataset, name, seed=seed, taps=taps, think_s=3.0, deadline_s=1.5,
        breaker_config=BreakerConfig(failure_threshold=3,
                                     reset_timeout_s=10.0),
        cluster_config=ClusterConfig(nodes=5, partitions=4,
                                     replication_factor=3,
                                     read_quorum=2),
    )


class TestPinnedReports:
    @pytest.mark.parametrize("name", ["cascade", "node_crash"])
    def test_chaos_report(self, name):
        run = replay(name, world(), seed=42, taps=12)
        pinned = (PINS / f"chaos_{name}_taps12.json").read_text()
        assert dump(run.payload) == pinned

    def test_divergence_repair_report(self):
        dataset = world()
        engine = ClusterEngine.from_drugtree(
            dataset.drugtree(),
            cluster_config=ClusterConfig(nodes=5, partitions=4,
                                         replication_factor=3,
                                         read_quorum=2,
                                         hinted_handoff=False),
            clock=dataset.clock,
            config=EngineConfig(use_semantic_cache=False),
        )
        report = run_divergence_repair(dataset, engine, writes=5)
        pinned = json.loads((PINS / "cluster_verify.json").read_text())
        assert report == pinned["verify"]
        assert report["failures"] == []
        assert report["divergent_keys_before"] > 0

    def test_cluster_verify_cli_prints_the_pinned_json(self, capsys):
        assert main(["cluster", "--verify", "--json"]) == 0
        assert capsys.readouterr().out == \
            (PINS / "cluster_verify.json").read_text()


# One child interpreter replays all nine scenarios and prints their
# payloads; run under two hash seeds it must print the same bytes.
_REPLAY_ALL = """
import json, sys
sys.path.insert(0, {tests!r})
from repro.obs import MetricsRegistry, set_metrics
from test_scenarios import REPLAY_WORLD, replay, world
from repro.faults import SCENARIOS
out = {{}}
for name in SCENARIOS:
    set_metrics(MetricsRegistry())
    out[name] = replay(name, world(**REPLAY_WORLD), seed=3,
                       taps=30).payload
print(json.dumps(out, sort_keys=True))
"""
REPLAY_WORLD = {"n_leaves": 12, "n_ligands": 16, "seed": 3}


@pytest.fixture(scope="module")
def replays_by_hash_seed():
    script = _REPLAY_ALL.format(tests=str(Path(__file__).parent))
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=str(SRC), REPRO_LOCKWATCH="0")
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(json.loads(done.stdout))
    return outputs


class TestReplay:
    @pytest.mark.parametrize("name", list(SCENARIOS))
    def test_same_seed_same_report_whatever_the_hash_seed(
            self, name, replays_by_hash_seed):
        here = replay(name, world(**REPLAY_WORLD), seed=3,
                      taps=30).payload
        first, second = replays_by_hash_seed
        # Through JSON, as the children's reports came.
        assert json.loads(json.dumps(here)) == first[name]
        assert first[name] == second[name]
        assert here["scenario"] == name
        assert sum(here["outcomes"].values()) == 30

    def test_the_seed_moves_the_faults(self):
        runs = [replay("node_crash", world(**REPLAY_WORLD), seed=seed,
                       taps=4) for seed in (3, 4)]
        assert runs[0].faults != runs[1].faults


class TestRunner:
    @pytest.mark.parametrize("name", ["calm", "node_calm"])
    def test_fewer_than_one_tap_is_rejected(self, name):
        with pytest.raises(ChaosError, match="at least one tap"):
            replay(name, world(**REPLAY_WORLD), seed=3, taps=0)

    def test_unknown_scenario_is_rejected_before_any_work(self):
        with pytest.raises(ChaosError, match="did you mean 'cascade'"):
            replay("cascad", None, seed=3, taps=4)

    def test_plain_session_without_breakers_or_deadline(self):
        run = run_tap_session(world(**REPLAY_WORLD), FaultSchedule(),
                              taps=6)
        assert run.payload["outcomes"] == {
            "fresh": 6, "degraded": 0, "stale": 0, "failed": 0}
        assert run.payload["breakers"] == {}
        assert run.breaker_trips == 0
        assert [outcome for outcome, _ in run.taps] == ["fresh"] * 6
        assert run.faults == []

    def test_node_scenario_reports_the_shifted_windows(self):
        dataset = world(**REPLAY_WORLD)
        run = replay("split_brain", dataset, seed=3, taps=4)
        (line,) = run.faults
        assert line.startswith("Outage node-")
        # Healed: the replay ran past the fault horizon and repaired.
        assert run.payload["anti_entropy"]["converged"] is True
        assert run.virtual_s == dataset.clock.now()


class TestOneFaultPlane:
    """One schedule, a source and two nodes, one clock: each target
    sees its own windows and nobody else's."""

    def test_mixed_schedule_drives_source_and_nodes(self):
        clock = SimulatedClock()
        schedule = FaultSchedule((
            Outage(0.0, 10.0, target="alpha-src"),
            Outage(5.0, 15.0, target="node-0"),
            LatencySpike(0.0, 20.0, extra_s=0.5, target="node-1"),
        ))
        source = ChaosSource(
            TableBackedSource(
                "alpha-src", clock, {"alpha": {"a0": "v0"}},
                latency=LatencyModel(base_s=0.1, per_item_s=0.0,
                                     jitter_fraction=0.0),
                page_size=10,
            ),
            schedule, timeout_s=0.25,
        )
        crashed = ClusterNode("node-0", clock, schedule=schedule,
                              base_latency_s=0.01, timeout_s=0.05)
        slow = ClusterNode("node-1", clock, schedule=schedule,
                           base_latency_s=0.01, timeout_s=0.05)

        def source_up():
            try:
                return source.fetch_many("alpha", ["a0"]) == {"a0": "v0"}
            except SourceUnavailableError:
                return False

        def node_up(node):
            try:
                node.get_partition(0)
                return True
            except NodeDownError:
                return False

        seen = {}
        for t in (1.0, 7.0, 12.0, 16.0):
            clock.advance(t - clock.now())
            seen[t] = (source_up(), node_up(crashed))
        assert seen == {
            1.0: (False, True),    # only the source's window is open
            7.0: (False, False),   # both
            12.0: (True, False),   # only the node's
            16.0: (True, True),    # neither
        }
        # The spike is node-1's alone: it pays it, node-0 and the
        # source never do.
        before = clock.now()
        slow.get_partition(0)
        assert clock.now() - before == pytest.approx(0.51)
        before = clock.now()
        crashed.get_partition(0)
        assert clock.now() - before == pytest.approx(0.01)
        assert source.chaos_stats.injected_latency_s == \
            pytest.approx(2 * 0.25)  # its two timeouts, no spike
        assert schedule.horizon_s() == 20.0
