"""Clade-interval partitioning: coverage, lookup, and query pruning."""

import pytest

from repro.bio import parse_newick
from repro.cluster import ClusterEngine
from repro.cluster.partitioning import (
    CladePartitioner,
    Partition,
    leaf_span,
    partitions_for_query,
)
from repro.core import QueryEngine
from repro.core.labeling import IntervalLabeling
from repro.core.query.ast import Comparison, Query
from repro.core.query.parser import parse_query
from repro.errors import ClusterError
from repro.workloads import DatasetConfig, build_dataset
from tests.cluster.test_parity import CLUSTER

NEWICK = "((a:1,b:1)ab:1,((c:1,d:1)cd:1,(e:1,f:1)ef:1)cdef:1)root;"


@pytest.fixture
def labeling():
    return IntervalLabeling(parse_newick(NEWICK))


class TestPartitionDataclass:
    def test_rejects_empty_interval(self):
        with pytest.raises(ClusterError):
            Partition(pid=0, low=3, high=3)

    def test_rejects_half_specified_interval(self):
        with pytest.raises(ClusterError):
            Partition(pid=0, low=3, high=None)

    def test_global_partition(self):
        partition = Partition(pid=7, low=None, high=None, name="ligands")
        assert partition.is_global
        assert partition.leaf_count == 0
        assert not partition.contains(0)
        assert not partition.intersects(0, 100)

    def test_contains_is_half_open(self):
        partition = Partition(pid=0, low=2, high=5)
        assert not partition.contains(1)
        assert partition.contains(2)
        assert partition.contains(4)
        assert not partition.contains(5)


    def test_describe_names_the_interval_or_global(self):
        assert Partition(pid=0, low=2, high=5, name="ab").describe() == \
            "p0 [2, 5) ab"
        assert Partition(pid=7, low=None, high=None,
                         name="ligands").describe() == \
            "p7 (global) ligands"


class TestCladePartitioner:
    def test_intervals_cover_leaves_exactly(self, labeling):
        partitioner = CladePartitioner(labeling, n_partitions=3)
        intervals = partitioner.interval_partitions
        assert intervals[0].low == 0
        assert intervals[-1].high == labeling.leaf_count
        for left, right in zip(intervals, intervals[1:]):
            assert left.high == right.low  # contiguous, non-overlapping

    def test_boundaries_are_clade_boundaries(self, labeling):
        partitioner = CladePartitioner(labeling, n_partitions=3)
        clade_ranges = {
            labeling.leaf_range(name) for name in
            ("ab", "cd", "ef", "cdef", "root", "a", "b", "c", "d", "e", "f")
        }
        for partition in partitioner.interval_partitions:
            assert (partition.low, partition.high) in clade_ranges

    def test_more_partitions_than_splittable_clades(self, labeling):
        # Asking for more partitions than the tree can supply stops at
        # single-leaf clades instead of erroring.
        partitioner = CladePartitioner(labeling, n_partitions=50)
        intervals = partitioner.interval_partitions
        assert all(p.leaf_count == 1 for p in intervals)
        assert len(intervals) == labeling.leaf_count

    def test_single_partition_is_the_root(self, labeling):
        partitioner = CladePartitioner(labeling, n_partitions=1)
        (only,) = partitioner.interval_partitions
        assert (only.low, only.high) == (0, labeling.leaf_count)

    def test_ligands_partition_is_global_and_last(self, labeling):
        partitioner = CladePartitioner(labeling, n_partitions=3)
        ligands = partitioner.ligands_partition
        assert ligands.is_global
        assert ligands.pid == len(partitioner.interval_partitions)
        assert partitioner.partitions[-1] is ligands

    def test_partition_for_position(self, labeling):
        partitioner = CladePartitioner(labeling, n_partitions=3)
        for position in range(labeling.leaf_count):
            partition = partitioner.partition_for_position(position)
            assert partition.contains(position)

    def test_partition_for_bad_position(self, labeling):
        partitioner = CladePartitioner(labeling, n_partitions=3)
        with pytest.raises(ClusterError):
            partitioner.partition_for_position(labeling.leaf_count)
        with pytest.raises(ClusterError):
            partitioner.partition_for_position(-1)

    def test_partitions_intersecting(self, labeling):
        partitioner = CladePartitioner(labeling, n_partitions=3)
        everything = partitioner.partitions_intersecting(
            0, labeling.leaf_count
        )
        assert everything == list(partitioner.interval_partitions)
        first = partitioner.interval_partitions[0]
        only_first = partitioner.partitions_intersecting(
            first.low, first.high
        )
        assert only_first == [first]
        assert partitioner.partitions_intersecting(3, 3) == []

    def test_deterministic_split(self, labeling):
        first = CladePartitioner(labeling, n_partitions=3)
        second = CladePartitioner(labeling, n_partitions=3)
        assert first.partitions == second.partitions


    def test_describe_lists_every_partition_in_order(self, labeling):
        partitioner = CladePartitioner(labeling, n_partitions=3)
        lines = partitioner.describe()
        assert lines == [p.describe() for p in partitioner.partitions]
        assert [line.split()[0] for line in lines] == [
            f"p{p.pid}" for p in partitioner.partitions]
        assert lines[-1].startswith(f"p{partitioner.partitions[-1].pid} "
                                    "(global)")


class TestScanInterval:
    def test_unbounded_query(self, labeling):
        query = parse_query("SELECT * FROM bindings")
        assert leaf_span(query, labeling) is None

    def test_subtree_filter(self, labeling):
        query = parse_query("SELECT * FROM bindings IN SUBTREE 'cd'")
        assert leaf_span(query, labeling) == labeling.leaf_range("cd")

    def test_unknown_subtree_left_to_engine(self, labeling):
        query = parse_query("SELECT * FROM bindings IN SUBTREE 'nope'")
        assert leaf_span(query, labeling) is None

    def test_leaf_pre_comparisons(self, labeling):
        cases = {
            "leaf_pre < 4": (0, 4),
            "leaf_pre <= 4": (0, 5),
            "leaf_pre >= 3": (3, labeling.leaf_count),
            "leaf_pre > 3": (4, labeling.leaf_count),
            "leaf_pre = 2": (2, 3),
        }
        for predicate, expected in cases.items():
            query = parse_query(
                f"SELECT * FROM proteins WHERE {predicate}"
            )
            assert leaf_span(query, labeling) == expected, predicate

    @pytest.mark.parametrize("predicate, expected", [
        ("leaf_pre < 11.5", (0, 12)),
        ("leaf_pre <= 11.5", (0, 12)),
        ("leaf_pre > 10.5", (11, 16)),
        ("leaf_pre >= -0.5", (0, 16)),
        ("leaf_pre = 2.5", (3, 3)),
        ("leaf_pre IN (2.5, 7)", (3, 8)),
        ("leaf_pre < 1e999", (0, 16)),
    ])
    def test_fractional_literals_keep_every_integer_they_allow(
            self, predicate, expected):
        labeling = IntervalLabeling(parse_newick(
            "(" + ",".join(f"l{i}:1" for i in range(16)) + ")root;"))
        query = parse_query(f"SELECT * FROM proteins WHERE {predicate}")
        assert leaf_span(query, labeling) == expected

    @pytest.mark.parametrize("bound", ["<=", "<"])
    def test_a_bound_at_the_subtree_edge_keeps_the_clade(self, labeling,
                                                         bound):
        low, high = labeling.leaf_range("cd")
        query = parse_query(
            f"SELECT * FROM bindings WHERE leaf_pre {bound} {high} "
            "IN SUBTREE 'cd'"
        )
        assert leaf_span(query, labeling) == (low, high)

    def test_literals_that_do_not_compare_prune_nothing(self, labeling):
        query = parse_query(
            "SELECT * FROM bindings WHERE leaf_pre >= 'c' IN SUBTREE 'cd'"
        )
        assert leaf_span(query, labeling) is None

    def test_subtree_and_predicate_intersect(self, labeling):
        low, high = labeling.leaf_range("cdef")
        query = parse_query(
            f"SELECT * FROM bindings WHERE leaf_pre < {high - 1} "
            "IN SUBTREE 'cdef'"
        )
        assert leaf_span(query, labeling) == (low, high - 1)


class TestPartitionsForQuery:
    @pytest.fixture
    def world(self):
        dataset = build_dataset(
            DatasetConfig(n_leaves=16, n_ligands=20, seed=17)
        )
        drugtree = dataset.drugtree()
        return drugtree.labeling, CladePartitioner(
            drugtree.labeling, n_partitions=4
        )

    def test_unbounded_contacts_all_interval_shards(self, world):
        _, partitioner = world
        pids = partitions_for_query(
            parse_query("SELECT count(*) FROM bindings"), partitioner
        )
        assert pids == [p.pid for p in partitioner.interval_partitions]

    def test_subtree_query_prunes_shards(self, world):
        labeling, partitioner = world
        # A partition-aligned clade must route to exactly one shard.
        target = partitioner.interval_partitions[0]
        query = parse_query(
            f"SELECT * FROM bindings IN SUBTREE '{target.name}'"
        )
        assert partitions_for_query(query, partitioner) == [target.pid]

    def test_a_fractional_bound_keeps_the_partition_it_opens(self):
        # Leaf 11 opens the partition [11, 24): ``leaf_pre < 11.5``
        # holds it, so pruning must keep it.
        dataset = build_dataset(
            DatasetConfig(n_leaves=40, n_ligands=60, seed=42)
        )
        drugtree = dataset.drugtree()
        clustered = ClusterEngine.from_drugtree(
            drugtree, cluster_config=CLUSTER, clock=dataset.clock)
        assert [(p.low, p.high) for p in
                clustered.partitioner.interval_partitions][:2] \
            == [(0, 11), (11, 24)]
        text = "SELECT count(*) FROM bindings WHERE leaf_pre < 11.5"
        assert partitions_for_query(parse_query(text),
                                    clustered.partitioner) == [0, 1]
        assert clustered.execute(text).values \
            == QueryEngine(drugtree).execute(text).values == ((476,),)

    def test_ligands_query_hits_only_global_shard(self, world):
        _, partitioner = world
        pids = partitions_for_query(
            parse_query("SELECT * FROM ligands WHERE drug_like = true"),
            partitioner,
        )
        assert pids == [partitioner.ligands_partition.pid]

    def test_join_contacts_interval_and_global_shards(self, world):
        _, partitioner = world
        # Joins are implicit: selecting binding and ligand columns
        # together makes the query span both keyspaces.
        query = Query(
            select=("protein_id", "ligand_id", "p_affinity", "logp"),
            predicates=(Comparison("logp", "<=", 3.0),),
        )
        pids = partitions_for_query(query, partitioner)
        assert partitioner.ligands_partition.pid in pids
        assert len(pids) == len(partitioner.partitions)
