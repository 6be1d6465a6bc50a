"""Tree-aware sharded replication: the simulated multi-node cluster.

The single-node engine owns one overlay; this package range-partitions
that overlay by the Euler-tour clade intervals of
:mod:`repro.core.labeling`, replicates each partition across a group of
simulated nodes, and fronts the whole thing with a :class:`Router` that
speaks quorum reads (newest-version-wins with read repair),
sloppy-quorum writes with hinted handoff, and merkle-tree anti-entropy
repair. :class:`ClusterEngine` keeps query semantics bit-identical to
the single-node engine by materializing the contacted partitions into a
local overlay view and delegating to a normal
:class:`~repro.core.query.executor.QueryEngine`.

Everything runs in virtual time against a
:class:`~repro.sources.clock.SimulatedClock`, so node faults
(:mod:`repro.faults`) replay deterministically.

See docs/CLUSTER.md for topology, quorum math, and the repair
walk-through.
"""

from repro.cluster.engine import ClusterEngine
from repro.cluster.merkle import MerkleTree
from repro.cluster.node import ClusterNode, Hint, VersionedRow
from repro.cluster.partitioning import (
    CladePartitioner,
    Partition,
    leaf_span,
    partitions_for_query,
)
from repro.cluster.replication import Cluster, ClusterConfig, ReplicaGroup
from repro.cluster.router import AntiEntropyReport, Router, VerifyReport

__all__ = [
    "AntiEntropyReport",
    "CladePartitioner",
    "Cluster",
    "ClusterConfig",
    "ClusterEngine",
    "ClusterNode",
    "Hint",
    "MerkleTree",
    "Partition",
    "ReplicaGroup",
    "Router",
    "VerifyReport",
    "VersionedRow",
    "leaf_span",
    "partitions_for_query",
]
