"""Cluster topology: nodes, replica groups, and their assignment.

A :class:`Cluster` owns the simulated nodes and maps every partition
from the :class:`~repro.cluster.partitioning.CladePartitioner` to a
*replica group* of ``replication_factor`` nodes, assigned round-robin
so load spreads and no two adjacent partitions share their full group.
The quorum geometry lives in :class:`ClusterConfig`: with ``R + W >
RF`` every read quorum intersects every write quorum, which is what
makes newest-version-wins reads see every acknowledged write.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.node import ClusterNode
from repro.cluster.partitioning import CladePartitioner, Partition
from repro.core.labeling import IntervalLabeling
from repro.errors import ClusterError
from repro.faults import FaultSchedule
from repro.sources.clock import SimulatedClock


@dataclass(frozen=True)
class ClusterConfig:
    """Topology and quorum geometry of one simulated cluster."""

    nodes: int = 5
    partitions: int = 4
    replication_factor: int = 3
    read_quorum: int = 2
    write_quorum: int = 2
    #: Park writes for down replicas on live nodes and replay them when
    #: the target returns. Disable to let replicas diverge (the merkle
    #: anti-entropy tests do exactly that).
    hinted_handoff: bool = True

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ClusterError("cluster needs at least one node")
        if self.partitions < 1:
            raise ClusterError("cluster needs at least one partition")
        if not 1 <= self.replication_factor <= self.nodes:
            raise ClusterError(
                f"replication factor {self.replication_factor} must be "
                f"in [1, {self.nodes}] (node count)"
            )
        if not 1 <= self.read_quorum <= self.replication_factor:
            raise ClusterError("read quorum must be in [1, RF]")
        if not 1 <= self.write_quorum <= self.replication_factor:
            raise ClusterError("write quorum must be in [1, RF]")

    @property
    def strongly_consistent(self) -> bool:
        """``R + W > RF``: read and write quorums always intersect."""
        return (self.read_quorum + self.write_quorum
                > self.replication_factor)


@dataclass(frozen=True)
class ReplicaGroup:
    """The nodes replicating one partition, in preference order."""

    partition: Partition
    node_ids: tuple[str, ...]


class Cluster:
    """Simulated nodes plus the partition → replica-group assignment."""

    def __init__(self, labeling: IntervalLabeling,
                 config: ClusterConfig | None = None,
                 clock: SimulatedClock | None = None) -> None:
        self.config = config or ClusterConfig()
        self.clock = clock or SimulatedClock()
        self.schedule = FaultSchedule()
        self.partitioner = CladePartitioner(
            labeling, n_partitions=self.config.partitions,
        )
        self.node_ids = tuple(f"node-{i}"
                              for i in range(self.config.nodes))
        self.nodes: dict[str, ClusterNode] = {
            node_id: ClusterNode(node_id, self.clock,
                                 schedule=self.schedule)
            for node_id in self.node_ids
        }
        rf = self.config.replication_factor
        self.groups: dict[int, ReplicaGroup] = {
            partition.pid: ReplicaGroup(
                partition,
                tuple(self.node_ids[(partition.pid + k)
                                    % len(self.node_ids)]
                      for k in range(rf)),
            )
            for partition in self.partitioner.partitions
        }

    def set_schedule(self, schedule: FaultSchedule) -> None:
        """Swap in a fault schedule (chaos harness entry point)."""
        self.schedule = schedule
        for node in self.nodes.values():
            node.schedule = schedule

    def node(self, node_id: str) -> ClusterNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise ClusterError(f"unknown node {node_id!r}") from None

    def group_for(self, pid: int) -> ReplicaGroup:
        try:
            return self.groups[pid]
        except KeyError:
            raise ClusterError(f"unknown partition {pid}") from None

    # -- introspection for the CLI ------------------------------------------

    def topology(self) -> list[dict]:
        rows = []
        for pid in sorted(self.groups):
            group = self.groups[pid]
            partition = group.partition
            rows.append({
                "pid": pid,
                "clade": partition.name,
                "interval": ("(global)" if partition.is_global
                             else f"[{partition.low}, {partition.high})"),
                "replicas": list(group.node_ids),
            })
        return rows

    def node_states(self) -> list[dict]:
        return [{
            "node": node_id,
            "status": ("down" if node.is_down() else "up"),
            "partitions": node.partition_ids(),
            "keys": node.key_count(),
            "hints": node.hint_count(),
            "rpcs": node.rpcs,
            "failed_rpcs": node.failed_rpcs,
        } for node_id, node in sorted(self.nodes.items())]
