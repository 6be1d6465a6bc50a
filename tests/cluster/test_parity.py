"""Differential suite: cluster answers must be bit-identical.

Every workload family runs against a single-node :class:`QueryEngine`
and a :class:`ClusterEngine` sharded at RF=3/R=2 over the same overlay,
calm and with one replica crashed — rows must match exactly. The suite
also pins the routing surface: clade-pruned scans contact only the
intersecting shards, and the ``-- cluster:`` EXPLAIN ANALYZE trailer
reports it.
"""

import pytest

from repro.cluster import ClusterConfig, ClusterEngine
from repro.core import EngineConfig, QueryEngine
from repro.faults import FaultSchedule, Outage
from repro.obs import MetricsRegistry, set_metrics
from repro.workloads import DatasetConfig, QueryGenerator, build_dataset
from repro.workloads.queries import ALL_KINDS

CLUSTER = ClusterConfig(nodes=5, partitions=4, replication_factor=3,
                        read_quorum=2, write_quorum=2)


@pytest.fixture(autouse=True)
def fresh_metrics():
    set_metrics(MetricsRegistry())
    yield
    set_metrics(MetricsRegistry())


def make_pair(seed=17, n_leaves=16, n_ligands=24):
    """A single-node engine and a cluster engine over the same data."""
    dataset = build_dataset(DatasetConfig(
        n_leaves=n_leaves, n_ligands=n_ligands, seed=seed,
    ))
    drugtree = dataset.drugtree()
    single = QueryEngine(drugtree,
                        EngineConfig(use_semantic_cache=False))
    clustered = ClusterEngine.from_drugtree(
        drugtree, cluster_config=CLUSTER, clock=dataset.clock,
        config=EngineConfig(use_semantic_cache=False),
    )
    return dataset, single, clustered


def crash_one_replica(clustered, duration_s=3600.0):
    """Crash the first replica of partition 0 for the whole session."""
    cluster = clustered.router.cluster
    victim = cluster.group_for(0).node_ids[0]
    now = clustered.clock.now()
    cluster.set_schedule(FaultSchedule(
        (Outage(now, now + duration_s, target=victim),)
    ))
    return victim


class TestWorkloadParity:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("seed", [3, 11])
    def test_calm_parity(self, kind, seed):
        dataset, single, clustered = make_pair(seed=seed)
        generator = QueryGenerator(dataset.family, dataset.ligands,
                                   seed=seed)
        for _ in range(3):
            query = generator.draw(kind)
            expected = single.execute(query)
            got = clustered.execute(query)
            assert got.rows == expected.rows, query

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_parity_with_one_replica_crashed(self, kind):
        dataset, single, clustered = make_pair(seed=11)
        crash_one_replica(clustered)
        generator = QueryGenerator(dataset.family, dataset.ligands,
                                   seed=11)
        for _ in range(2):
            query = generator.draw(kind)
            expected = single.execute(query)
            got = clustered.execute(query)
            assert got.rows == expected.rows, query

    def test_crashed_replica_costs_quorum_not_answers(self):
        _, single, clustered = make_pair(seed=11)
        victim = crash_one_replica(clustered)
        query = "SELECT count(*) FROM bindings"
        assert (clustered.execute(query).rows
                == single.execute(query).rows)
        snapshot = clustered.router.breakers.snapshot()
        assert f"cluster/replica@{victim}" in snapshot


class TestInsertParity:
    def test_insert_then_identical_answers(self):
        dataset, single, clustered = make_pair(seed=7)
        drugtree = single.drugtree
        leaf = dataset.family.tree.leaf_names()[0]
        values = {
            "ligand_id": "LIG-NEW", "protein_id": leaf,
            "activity_type": "IC50", "value_nm": 12.0,
            "p_affinity": 7.9, "potent": True,
            "leaf_pre": drugtree.labeling.leaf_position(leaf),
        }
        clustered.insert("bindings", values)
        drugtree.tables["bindings"].insert(values)
        for query in (
            "SELECT count(*) FROM bindings",
            f"SELECT * FROM bindings IN SUBTREE '{leaf}'",
        ):
            assert (clustered.execute(query).rows
                    == single.execute(query).rows), query

    def test_write_invalidates_cached_view(self):
        dataset, single, clustered = make_pair(seed=7)
        query = "SELECT count(*) FROM bindings"
        before = clustered.execute(query).rows
        leaf = dataset.family.tree.leaf_names()[0]
        clustered.insert("bindings", {
            "ligand_id": "LIG-NEW", "protein_id": leaf,
            "activity_type": "IC50", "value_nm": 12.0,
            "p_affinity": 7.9, "potent": True,
        })
        after = clustered.execute(query).rows
        assert after[0]["count_all"] == before[0]["count_all"] + 1


class TestRoutingSurface:
    def test_clade_scan_prunes_shards(self):
        _, _, clustered = make_pair(seed=17)
        target = clustered.partitioner.interval_partitions[0]
        report = clustered.analyze(
            f"SELECT count(*) FROM bindings IN SUBTREE '{target.name}'"
        )
        total = len(clustered.partitioner.partitions)
        assert report.cluster["shards_contacted"] == 1
        assert report.cluster["shards_total"] == total
        assert report.cluster["shards_pruned"] == total - 1
        assert report.cluster["rf"] == 3
        assert report.cluster["read_quorum"] == 2

    def test_unbounded_scan_contacts_all_interval_shards(self):
        _, _, clustered = make_pair(seed=17)
        report = clustered.analyze("SELECT count(*) FROM bindings")
        intervals = len(clustered.partitioner.interval_partitions)
        assert report.cluster["shards_contacted"] == intervals
        # The global ligands shard is still pruned.
        assert report.cluster["shards_pruned"] == 1

    def test_cluster_trailer_rendered(self):
        _, _, clustered = make_pair(seed=17)
        target = clustered.partitioner.interval_partitions[0]
        text = clustered.explain_analyze(
            f"SELECT count(*) FROM bindings IN SUBTREE '{target.name}'"
        )
        total = len(clustered.partitioner.partitions)
        assert (f"-- cluster: shards contacted=1/{total} "
                f"(pruned {total - 1}), rf=3 r=2") in text

    def test_single_node_reports_have_no_trailer(self):
        _, single, _ = make_pair(seed=17)
        report = single.analyze("SELECT count(*) FROM bindings")
        assert "-- cluster:" not in report.render()
