"""Router protocols: quorum I/O, hinted handoff, merkle anti-entropy."""

import contextlib
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bio import parse_newick
from repro.cluster import Cluster, ClusterConfig, Router
from repro.cluster.node import BASE_LATENCY_S, RPC_TIMEOUT_S, VersionedRow
from repro.cluster.router import VerifyReport
from repro.core.labeling import IntervalLabeling
from repro.errors import (
    ClusterError,
    DeadlineExceededError,
    QuorumError,
)
from repro.faults import FaultSchedule, LatencySpike, Outage
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    Tracer,
    get_tracer,
    set_metrics,
    set_tracer,
)
from repro.sources.resilience import BreakerConfig, Deadline

NEWICK = "((a:1,b:1)ab:1,((c:1,d:1)cd:1,(e:1,f:1)ef:1)cdef:1)root;"


@pytest.fixture(autouse=True)
def fresh_metrics():
    set_metrics(MetricsRegistry())
    yield
    set_metrics(MetricsRegistry())


def make_router(hinted_handoff=True, **overrides):
    labeling = IntervalLabeling(parse_newick(NEWICK))
    config = ClusterConfig(
        nodes=5, partitions=3, replication_factor=3,
        read_quorum=2, write_quorum=2,
        hinted_handoff=hinted_handoff, **overrides,
    )
    return Router(Cluster(labeling, config=config))


def crash(router, node_id, duration_s=60.0):
    now = router.clock.now()
    router.cluster.set_schedule(FaultSchedule(
        (Outage(now, now + duration_s, target=node_id),)
    ))


def heal(router):
    """Clear faults and wait out both windows and breaker resets."""
    router.cluster.set_schedule(FaultSchedule())
    router.clock.advance(60.0)
    for node_id in router.cluster.node_ids:
        router._breaker_for(node_id).reset()


def row(i):
    return (f"LIG-{i}", "a", "IC50", 10.0, 8.0, True, 0)


class TestBreakerBoard:
    def test_breaker_config_is_the_one_route_to_the_board(self):
        # Default: 3 failures trip a node's breaker, 10 s resets it.
        assert make_router().breakers.config == BreakerConfig(
            failure_threshold=3, reset_timeout_s=10.0)
        router = Router(make_router().cluster,
                        breaker_config=BreakerConfig(failure_threshold=1))
        assert router.breakers.config.failure_threshold == 1
        assert router.breakers.clock is router.clock


class TestVersionsAndRouting:
    def test_versions_are_monotone(self):
        router = make_router()
        first = router.write("bindings", 0, row(0), leaf_pre=0)
        second = router.write("bindings", 1, row(1), leaf_pre=0)
        assert second > first
        pid = router.cluster.partitioner.partition_for_position(0).pid
        assert router.partition_versions == {pid: 2}

    def test_a_write_bumps_only_its_own_partitions_version(self):
        router = make_router()
        partitioner = router.cluster.partitioner
        router.write("bindings", 0, row(0), leaf_pre=0)
        last = partitioner.interval_partitions[-1]
        router.write("bindings", 1, row(1), leaf_pre=last.low)
        router.write("ligands", 0, ("L0",))
        assert router.partition_versions == {
            partitioner.partition_for_position(0).pid: 1,
            last.pid: 1,
            partitioner.ligands_partition.pid: 1,
        }

    def test_routes_by_leaf_pre(self):
        router = make_router()
        partitioner = router.cluster.partitioner
        router.write("bindings", 0, row(0), leaf_pre=0)
        pid = partitioner.partition_for_position(0).pid
        group = router.cluster.group_for(pid)
        for node_id in group.node_ids:
            node = router.cluster.node(node_id)
            assert node.key_count(pid) == 1
        outside = set(router.cluster.node_ids) - set(group.node_ids)
        for node_id in outside:
            assert router.cluster.node(node_id).key_count() == 0

    def test_no_leaf_pre_goes_to_global_partition(self):
        router = make_router()
        router.write("ligands", 0, ("LIG-0", "CCO"))
        pid = router.cluster.partitioner.ligands_partition.pid
        merged = router.read_partition(pid)
        assert ("ligands", 0) in merged

    def test_row_id_allocation_resumes_after_seeding(self):
        router = make_router()
        router.write("bindings", 41, row(0), leaf_pre=0)
        assert router.allocate_row_id("bindings") == 42
        assert router.allocate_row_id("ligands") == 0


class TestQuorumReads:
    def test_newest_version_wins(self):
        router = make_router()
        pid = router.cluster.partitioner.partition_for_position(0).pid
        router.write("bindings", 0, row(0), leaf_pre=0)
        router.write("bindings", 0, ("updated",) + row(0)[1:],
                     leaf_pre=0)
        merged = router.read_partition(pid)
        assert merged[("bindings", 0)].row[0] == "updated"

    def test_read_repair_fixes_stale_contacted_replica(self):
        router = make_router(hinted_handoff=False)
        pid = router.cluster.partitioner.partition_for_position(0).pid
        group = router.cluster.group_for(pid)
        victim = group.node_ids[0]
        crash(router, victim, duration_s=5.0)
        router.write("bindings", 0, row(0), leaf_pre=0)
        heal(router)
        assert router.cluster.node(victim).key_count(pid) == 0
        # The quorum read contacts the (healed) victim first, sees it
        # is stale against the merge winner, and repairs it in place.
        router.read_partition(pid)
        assert router.stats.read_repairs >= 1
        assert router.cluster.node(victim).key_count(pid) == 1

    def test_quorum_failure_when_too_few_replicas(self):
        router = make_router()
        pid = router.cluster.partitioner.partition_for_position(0).pid
        for node_id in router.cluster.group_for(pid).node_ids[:2]:
            # Two of three replicas gone: R=2 cannot be met.
            now = router.clock.now()
            events = router.cluster.schedule.events + (
                Outage(now, now + 60.0, target=node_id),
            )
            router.cluster.set_schedule(FaultSchedule(events))
        with pytest.raises(QuorumError):
            router.read_partition(pid)
        assert router.stats.quorum_failures == 1

    def test_deadline_exceeded_raises(self):
        router = make_router()
        pid = router.cluster.partitioner.partition_for_position(0).pid
        spent = Deadline(router.clock, 0.001)
        router.clock.advance(1.0)
        with pytest.raises(DeadlineExceededError):
            router.read_partition(pid, deadline=spent)

    def test_fanout_merges_disjoint_partitions(self):
        router = make_router()
        labeling = router.cluster.partitioner.labeling
        for i, name in enumerate(labeling.tree.leaf_names()):
            router.write("bindings", i, row(i),
                         leaf_pre=labeling.leaf_position(name))
        pids = [p.pid for p in
                router.cluster.partitioner.interval_partitions]
        read = router.read_partitions(pids)
        assert sorted(read) == sorted(pids)
        assert sum(map(len, read.values())) == labeling.leaf_count

    def test_unknown_partition_rejected(self):
        router = make_router()
        with pytest.raises(ClusterError):
            router.read_partition(99)


#: How one replica holds one key of the newest write: the very object
#: the router handed every replica, an equal but distinct one, an older
#: version, or not at all.
REPLICA_STATES = ("shared", "equal", "older", "missing")


def reference_read(answers):
    """Newest-version-wins merge plus the repairs it implies, with no
    shortcut for replicas that agree."""
    merged = {}
    for data in answers:
        for key, versioned in data.items():
            current = merged.get(key)
            if current is None or versioned.version > current.version:
                merged[key] = versioned
    stale = [{key: versioned for key, versioned in merged.items()
              if key not in data or data[key].version < versioned.version}
             for data in answers]
    repaired = [{**data, **pushed} for data, pushed in zip(answers, stale)]
    return merged, sum(map(len, stale)), repaired


class TestReadPartitionMatchesTheReferenceMerge:
    """Replicas that agree skip the merge; the answer, the repair count
    and every replica afterwards must still be the reference's."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(newest=st.dictionaries(st.integers(0, 7), st.integers(2, 9),
                                  max_size=6),
           states=st.lists(st.lists(st.sampled_from(REPLICA_STATES),
                                    min_size=8, max_size=8),
                           min_size=3, max_size=3))
    def test_answer_repairs_and_replicas(self, newest, states):
        router = make_router()
        pid = router.cluster.partitioner.partition_for_position(0).pid
        replicas = [router.cluster.node(node_id) for node_id
                    in router.cluster.group_for(pid).node_ids]
        shared = {("bindings", key): VersionedRow(version, row(key))
                  for key, version in newest.items()}
        for node, held in zip(replicas, states):
            contents = {}
            for (table, key), versioned in shared.items():
                state = held[key]
                if state == "shared":
                    contents[table, key] = versioned
                elif state == "equal":
                    contents[table, key] = VersionedRow(
                        versioned.version, row(key))
                elif state == "older":
                    contents[table, key] = VersionedRow(
                        versioned.version - 1, ("old",) + row(key)[1:])
            node.put_bulk(pid, contents)
        contacted = replicas[:router.config.read_quorum]
        before = [node.get_partition(pid) for node in replicas]
        expected, repairs, repaired = reference_read(
            before[:len(contacted)])

        got = router.read_partition(pid)

        assert got == expected
        assert router.stats.read_repairs == repairs
        assert [node.get_partition(pid) for node in contacted] == repaired
        assert [node.get_partition(pid)
                for node in replicas[len(contacted):]] \
            == before[len(contacted):]
        got.clear()  # the answer is the caller's, not a replica's store
        assert [node.get_partition(pid) for node in contacted] == repaired


def interval_pids(router):
    return [p.pid for p in
            router.cluster.partitioner.interval_partitions]


def instrument_nodes(router, on_rpc):
    """Call ``on_rpc(node_id, pid)`` around every ``get_partition``."""
    for node_id in router.cluster.node_ids:
        node = router.cluster.node(node_id)

        def get_partition(pid, node_id=node_id,
                          original=node.get_partition):
            with on_rpc(node_id, pid):
                return original(pid)

        node.get_partition = get_partition


class TestFanoutOnOneThread:
    """Partition reads run one after another on the caller, each under
    its own task timeline — the fan-out still charges the max."""

    def test_partition_reads_run_on_the_calling_thread(self):
        router = make_router()
        idents = []

        def on_rpc(node_id, pid):
            idents.append(threading.get_ident())
            return contextlib.nullcontext()

        instrument_nodes(router, on_rpc)
        pids = interval_pids(router)
        router.read_partitions(pids)
        assert len(idents) == len(pids) * router.config.read_quorum
        assert set(idents) == {threading.get_ident()}

    def test_node_rpc_work_sits_under_the_fanout_span(self):
        router = make_router()
        instrument_nodes(
            router,
            lambda node_id, pid: get_tracer().span(
                "test.node_rpc", node=node_id, pid=pid))
        tracer = Tracer(router.clock)
        set_tracer(tracer)
        try:
            router.read_partitions(interval_pids(router))
        finally:
            set_tracer(NULL_TRACER)
        spans = tracer.finished_spans()
        [fanout] = [s for s in spans if s.name == "cluster.fanout"]
        rpcs = [s for s in spans if s.name == "test.node_rpc"]
        assert len(rpcs) == 3 * router.config.read_quorum
        assert {s.parent_id for s in rpcs} == {fanout.span_id}

    def test_failing_middle_partition_still_charges_the_max(self):
        # Groups: 0 = nodes 0-2, 1 = nodes 1-3, 2 = nodes 2-4. With
        # nodes 1 and 3 down only the middle partition loses its read
        # quorum; a slow node 4 makes the *last* partition the slowest.
        # Every partition is still read, the fan-out charges that
        # slowest task, and the middle one's error surfaces after it.
        router = make_router()
        now = router.clock.now()
        router.cluster.set_schedule(FaultSchedule((
            Outage(now, now + 60.0, target="node-1"),
            Outage(now, now + 60.0, target="node-3"),
            LatencySpike(now, now + 60.0, extra_s=0.5,
                         target="node-4"),
        )))
        with pytest.raises(QuorumError, match="partition 1"):
            router.read_partitions(interval_pids(router))
        slowest = (BASE_LATENCY_S + RPC_TIMEOUT_S
                   + BASE_LATENCY_S + 0.5)
        assert router.clock.now() - now == pytest.approx(slowest)
        assert router.cluster.node("node-4").rpcs == 1
        assert router.stats.quorum_failures == 1
        assert router.stats.reads == 0


class TestWritesAndHints:
    def test_write_quorum_failure(self):
        router = make_router()
        pid = router.cluster.partitioner.partition_for_position(0).pid
        group = router.cluster.group_for(pid)
        now = router.clock.now()
        router.cluster.set_schedule(FaultSchedule(tuple(
            Outage(now, now + 60.0, target=node_id)
            for node_id in group.node_ids[:2]
        )))
        with pytest.raises(QuorumError):
            router.write("bindings", 0, row(0), leaf_pre=0)

    def test_missed_replica_gets_a_hint(self):
        router = make_router()
        pid = router.cluster.partitioner.partition_for_position(0).pid
        victim = router.cluster.group_for(pid).node_ids[0]
        crash(router, victim, duration_s=5.0)
        router.write("bindings", 0, row(0), leaf_pre=0)
        assert router.stats.hints_queued == 1
        assert router.hints_outstanding() == 1
        assert router.cluster.node(victim).key_count(pid) == 0

    def test_hints_drain_when_target_returns(self):
        router = make_router()
        pid = router.cluster.partitioner.partition_for_position(0).pid
        victim = router.cluster.group_for(pid).node_ids[0]
        crash(router, victim, duration_s=5.0)
        router.write("bindings", 0, row(0), leaf_pre=0)
        heal(router)
        delivered = router.drain_hints()
        assert delivered == 1
        assert router.hints_outstanding() == 0
        assert router.cluster.node(victim).key_count(pid) == 1
        assert router.stats.hints_delivered == 1

    def test_hints_survive_while_target_still_down(self):
        router = make_router()
        pid = router.cluster.partitioner.partition_for_position(0).pid
        victim = router.cluster.group_for(pid).node_ids[0]
        crash(router, victim, duration_s=600.0)
        router.write("bindings", 0, row(0), leaf_pre=0)
        assert router.drain_hints() == 0
        assert router.hints_outstanding() == 1

    def test_handoff_off_leaves_divergence(self):
        router = make_router(hinted_handoff=False)
        pid = router.cluster.partitioner.partition_for_position(0).pid
        victim = router.cluster.group_for(pid).node_ids[0]
        crash(router, victim, duration_s=5.0)
        router.write("bindings", 0, row(0), leaf_pre=0)
        assert router.hints_outstanding() == 0
        heal(router)
        report = router.verify()
        assert not report.converged
        assert report.divergent_keys >= 1


class TestAntiEntropy:
    def seed_divergence(self, router, writes=3):
        pid = router.cluster.partitioner.partition_for_position(0).pid
        victim = router.cluster.group_for(pid).node_ids[0]
        crash(router, victim, duration_s=5.0)
        for i in range(writes):
            router.write("bindings", i, row(i), leaf_pre=0)
        heal(router)
        return pid, victim

    def test_converges_in_bounded_rounds(self):
        router = make_router(hinted_handoff=False)
        pid, victim = self.seed_divergence(router)
        assert not router.verify().converged
        report = router.anti_entropy(max_rounds=4)
        # One round repairs, the next proves the fixpoint.
        assert report.rounds <= 2
        assert report.converged
        assert report.entries_pushed == 3
        assert report.keys_repaired == 3
        assert report.groups_repaired == 1
        assert router.cluster.node(victim).key_count(pid) == 3
        after = router.verify()
        assert after.converged
        assert after.divergent_keys == 0

    def test_noop_on_converged_cluster(self):
        router = make_router()
        router.write("bindings", 0, row(0), leaf_pre=0)
        report = router.anti_entropy()
        assert report.rounds == 1
        assert report.entries_pushed == 0
        assert report.converged

    def test_skips_groups_without_two_live_replicas(self):
        router = make_router(hinted_handoff=False)
        pid, victim = self.seed_divergence(router)
        group = router.cluster.group_for(pid)
        now = router.clock.now()
        router.cluster.set_schedule(FaultSchedule(tuple(
            Outage(now, now + 600.0, target=node_id)
            for node_id in group.node_ids[:2]
        )))
        report = router.anti_entropy()
        assert pid in report.groups_skipped
        assert not report.converged

    def test_repair_is_idempotent(self):
        router = make_router(hinted_handoff=False)
        self.seed_divergence(router)
        first = router.anti_entropy()
        second = router.anti_entropy()
        assert first.converged
        assert second.entries_pushed == 0
        assert second.converged


class TestPerNodeBreakers:
    def test_breaker_opens_for_the_crashed_node_only(self):
        router = make_router()
        pid = router.cluster.partitioner.partition_for_position(0).pid
        victim = router.cluster.group_for(pid).node_ids[0]
        crash(router, victim, duration_s=600.0)
        # Default router breaker threshold is 3 failures.
        for i in range(3):
            router.write("bindings", i, row(i), leaf_pre=0)
        snapshot = router.breakers.snapshot()
        assert snapshot[f"cluster/replica@{victim}"] == "open"
        others = {name: state for name, state in snapshot.items()
                  if not name.endswith(f"@{victim}")}
        assert all(state == "closed" for state in others.values())

    def test_open_breaker_short_circuits_instead_of_timing_out(self):
        router = make_router()
        pid = router.cluster.partitioner.partition_for_position(0).pid
        victim = router.cluster.group_for(pid).node_ids[0]
        crash(router, victim, duration_s=600.0)
        for i in range(3):
            router.write("bindings", i, row(i), leaf_pre=0)
        errors_before = router.stats.node_errors
        before = router.clock.now()
        router.write("bindings", 3, row(3), leaf_pre=0)
        # The victim was skipped: no new timeout charged against it.
        assert router.stats.breaker_skips >= 1
        assert router.stats.node_errors == errors_before
        elapsed = router.clock.now() - before
        assert elapsed < RPC_TIMEOUT_S


def _group(pid, roots_equal=True, diff_keys=0, skipped=False):
    return {"pid": pid, "replicas": [0, 1, 2], "live": [0, 1, 2],
            "roots_equal": roots_equal, "diff_keys": diff_keys,
            "skipped": skipped}


class TestVerifyReport:
    @pytest.mark.parametrize("groups,converged,divergent", [
        ([], True, 0),
        ([_group(0), _group(1)], True, 0),
        ([_group(0), _group(1, roots_equal=False, diff_keys=3)], False, 3),
        ([_group(0, skipped=True)], False, 0),
    ])
    def test_converged_needs_equal_roots_and_no_skipped_group(
            self, groups, converged, divergent):
        report = VerifyReport(groups)
        assert report.converged is converged
        assert report.divergent_keys == divergent

    def test_as_dict_is_what_cluster_verify_prints(self):
        groups = [_group(0, roots_equal=False, diff_keys=2), _group(1)]
        data = VerifyReport(groups).as_dict()
        assert data == {"converged": False, "divergent_keys": 2,
                        "groups": groups}
        assert data["groups"] is not groups
