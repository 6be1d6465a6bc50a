"""Clade-interval range partitioning of the overlay tables.

The Euler-tour labeling already maps every clade to a half-open leaf
interval ``[leaf_low, leaf_high)``, and every ``proteins`` / ``bindings``
row carries its leaf position in the ``leaf_pre`` column. Partitioning
*by those intervals* means a subtree predicate — the dominant DrugTree
query — maps to a contiguous run of partitions, so the router fans a
clade-pruned scan out only to the shards whose intervals intersect it.

:class:`CladePartitioner` splits the tree top-down (always the
largest-leaf-count clade next) until it has the requested number of
disjoint clade intervals covering ``[0, leaf_count)``. The ``ligands``
table has no tree position; it lives in one dedicated *global*
partition replicated like any other.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.core.labeling import IntervalLabeling
from repro.core.overlay import (
    BINDINGS_TABLE,
    LIGANDS_TABLE,
    PROTEINS_TABLE,
)
from repro.core.query.ast import Band, Query
from repro.errors import ClusterError

#: Tables keyed by ``leaf_pre`` and split across the interval partitions.
PARTITIONED_TABLES = (PROTEINS_TABLE, BINDINGS_TABLE)


@dataclass(frozen=True)
class Partition:
    """One shard: a half-open leaf-position interval, or the global one.

    ``low is None`` marks the un-keyed (global) partition that holds
    tables without a tree position (currently ``ligands``).
    """

    pid: int
    low: int | None
    high: int | None
    name: str = ""

    def __post_init__(self) -> None:
        if (self.low is None) != (self.high is None):
            raise ClusterError("partition interval must be both-or-neither")
        if self.low is not None and self.low >= self.high:
            raise ClusterError(
                f"partition {self.pid} has empty interval "
                f"[{self.low}, {self.high})"
            )

    @property
    def is_global(self) -> bool:
        return self.low is None

    @property
    def leaf_count(self) -> int:
        return 0 if self.is_global else self.high - self.low

    def contains(self, position: int) -> bool:
        return (not self.is_global
                and self.low <= position < self.high)

    def intersects(self, low: int, high: int) -> bool:
        """Does ``[low, high)`` overlap this partition's interval?"""
        if self.is_global or low >= high:
            return False
        return self.low < high and low < self.high

    def describe(self) -> str:
        if self.is_global:
            return f"p{self.pid} (global) {self.name}"
        return f"p{self.pid} [{self.low}, {self.high}) {self.name}"


class CladePartitioner:
    """Clade-aligned range partitions over one labeled tree.

    The split walk starts at the root and repeatedly replaces the
    largest remaining clade with its children until ``n_partitions``
    disjoint intervals exist (or every remaining clade is a single
    leaf). Partition boundaries therefore always coincide with clade
    boundaries, which is what makes subtree pruning exact: a clade
    interval either misses a partition entirely or the partition holds
    only rows the query may need.
    """

    def __init__(self, labeling: IntervalLabeling,
                 n_partitions: int = 4) -> None:
        if n_partitions < 1:
            raise ClusterError("need at least one partition")
        if labeling.leaf_count < 1:
            raise ClusterError("cannot partition a tree with no leaves")
        self.labeling = labeling
        self.interval_partitions = self._split(n_partitions)
        self.ligands_partition = Partition(
            pid=len(self.interval_partitions), low=None, high=None,
            name="ligands",
        )
        self.partitions = (*self.interval_partitions,
                           self.ligands_partition)
        self._lows = [p.low for p in self.interval_partitions]

    def _split(self, n_partitions: int) -> tuple[Partition, ...]:
        labeling = self.labeling

        def label(node):
            return labeling.label_of_node(node)

        chosen = [labeling.tree.root]
        while len(chosen) < n_partitions:
            splittable = [
                node for node in chosen
                if sum(1 for child in node.children
                       if label(child).leaf_count > 0) > 1
            ]
            if not splittable:
                break
            # Largest clade next; leaf_low breaks ties deterministically.
            victim = max(splittable,
                         key=lambda node: (label(node).leaf_count,
                                           -label(node).leaf_low))
            chosen.remove(victim)
            chosen.extend(child for child in victim.children
                          if label(child).leaf_count > 0)
        chosen.sort(key=lambda node: label(node).leaf_low)
        partitions = []
        for pid, node in enumerate(chosen):
            node_label = label(node)
            partitions.append(Partition(
                pid=pid,
                low=node_label.leaf_low,
                high=node_label.leaf_high,
                name=node.name
                or f"clade[{node_label.leaf_low}:{node_label.leaf_high})",
            ))
        return tuple(partitions)

    # -- lookup -------------------------------------------------------------

    def partition_for_position(self, position: int) -> Partition:
        """The interval partition owning one leaf position."""
        slot = bisect_right(self._lows, position) - 1
        if slot >= 0:
            partition = self.interval_partitions[slot]
            if partition.contains(position):
                return partition
        raise ClusterError(f"no partition owns leaf position {position}")

    def partitions_intersecting(self, low: int,
                                high: int) -> list[Partition]:
        """Interval partitions overlapping ``[low, high)``, in order."""
        return [p for p in self.interval_partitions
                if p.intersects(low, high)]

    def describe(self) -> list[str]:
        return [p.describe() for p in self.partitions]


def leaf_span(query: Query,
              labeling: IntervalLabeling) -> tuple[int, int] | None:
    """The half-open ``leaf_pre`` interval a query can touch: the
    integers of the :class:`Band` of its ``leaf_pre`` comparisons and
    its clade's leaf range. ``None`` when unbounded, or bounded by
    literals no leaf position compares with: every interval partition
    may hold rows. An unknown clade is left to the engine to report."""
    bounds = [p for p in query.predicates if p.column == "leaf_pre"]
    if (query.subtree is not None
            and labeling.has_name(query.subtree.node_name)):
        bounds += query.subtree.bounds(labeling)
    try:
        band = Band.of(bounds)
        return None if band == Band() \
            else band.integers(0, labeling.leaf_count)
    except TypeError:
        return None


def partitions_for_query(query: Query,
                         partitioner: CladePartitioner) -> list[int]:
    """Partition ids a query must contact — the pruning decision.

    Partitioned tables contribute the interval partitions intersecting
    the query's ``leaf_pre`` interval (all of them when unbounded); the
    global ligands partition is added whenever the query touches the
    ligands table.
    """
    tables = query.tables()
    pids: list[int] = []
    if any(table in tables for table in PARTITIONED_TABLES):
        interval = leaf_span(query, partitioner.labeling)
        if interval is None:
            pids.extend(p.pid for p in partitioner.interval_partitions)
        else:
            pids.extend(p.pid for p in
                        partitioner.partitions_intersecting(*interval))
    if LIGANDS_TABLE in tables:
        pids.append(partitioner.ligands_partition.pid)
    return pids
