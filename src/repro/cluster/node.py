"""One simulated cluster node: a versioned partition store plus hints.

A node holds, per partition it replicates, a map ``(table, row_id) →
(version, row)``. Versions are lamport-style counters stamped by the
router; a node applies a put only when it is newer than what it holds
(last-writer-wins at the replica), which makes replica repair — read
repair, hinted handoff, anti-entropy pushes — idempotent and
order-insensitive.

Every public method is an *RPC*: it consults the fault schedule at the
caller's virtual now, charges latency on the caller's timeline (base
latency, stretched and padded by any latency spike, or the full RPC
timeout when the node is unreachable), and raises
:class:`~repro.errors.NodeDownError` inside an outage window or when an
error burst drops the call.
Thread-safe, for callers that share one cluster across threads.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.cluster.merkle import MerkleTree
from repro.errors import NodeDownError
from repro.faults import FaultSchedule
from repro.sources.clock import SimulatedClock


@dataclass(frozen=True)
class VersionedRow:
    """One stored row plus the lamport version that wrote it."""

    version: int
    row: tuple


@dataclass(frozen=True)
class Hint:
    """A write a down node missed, parked on a live replica.

    ``target`` is the node the write was meant for; the hint is
    delivered (replayed as a normal put) when the target returns.
    """

    target: str
    pid: int
    table: str
    row_id: int
    versioned: VersionedRow


#: Virtual seconds one healthy RPC costs, and what a caller waits on a
#: node that is down before giving up on it.
BASE_LATENCY_S = 0.002
RPC_TIMEOUT_S = 0.05


class ClusterNode:
    """One simulated storage node of the cluster."""

    def __init__(self, node_id: str, clock: SimulatedClock,
                 schedule: FaultSchedule | None = None,
                 base_latency_s: float = BASE_LATENCY_S,
                 timeout_s: float = RPC_TIMEOUT_S) -> None:
        self.node_id = node_id
        self.clock = clock
        self.schedule = schedule or FaultSchedule()
        self.base_latency_s = base_latency_s
        self.timeout_s = timeout_s
        self._lock = threading.Lock()
        self._store: dict[int, dict[tuple[str, int], VersionedRow]] = {}
        self._hints: list[Hint] = []
        #: RPCs answered / refused, for ``repro cluster`` node state.
        self.rpcs = 0
        self.failed_rpcs = 0

    # -- fault plumbing -----------------------------------------------------

    def is_down(self) -> bool:
        """Schedule peek at the caller's now — no latency charged.

        The simulation's stand-in for cluster membership gossip: the
        router uses it to skip known-dead nodes in maintenance paths
        (hint draining, anti-entropy) without paying RPC timeouts.
        """
        return self.schedule.effect_for(self.node_id,
                                        self.clock.now()).down

    def _rpc(self) -> None:
        effect = self.schedule.effect_for(self.node_id, self.clock.now())
        if effect.down or self.schedule.draw_failure(
                self.node_id, effect.failure_rate):
            # An unreachable node costs the full timeout to discover.
            self.clock.sleep(self.timeout_s)
            with self._lock:
                self.failed_rpcs += 1
            raise NodeDownError(f"node {self.node_id} unreachable")
        self.clock.sleep(self.base_latency_s * effect.latency_factor
                         + effect.extra_latency_s)
        with self._lock:
            self.rpcs += 1

    # -- replica reads/writes (RPCs) ----------------------------------------

    def put(self, pid: int, table: str, row_id: int,
            versioned: VersionedRow) -> None:
        self._rpc()
        with self._lock:
            self._apply(pid, (table, row_id), versioned)

    def put_bulk(self, pid: int,
                 entries: dict[tuple[str, int], VersionedRow]) -> int:
        """Apply many repair entries in one RPC; returns rows updated."""
        self._rpc()
        applied = 0
        with self._lock:
            for key, versioned in sorted(entries.items()):
                applied += self._apply(pid, key, versioned)
        return applied

    def _apply(self, pid: int, key: tuple[str, int],
               versioned: VersionedRow) -> int:
        partition = self._store.setdefault(pid, {})
        current = partition.get(key)
        if current is None or versioned.version > current.version:
            partition[key] = versioned
            return 1
        return 0

    def get_partition(self, pid: int) -> dict[tuple[str, int],
                                              VersionedRow]:
        self._rpc()
        with self._lock:
            return dict(self._store.get(pid, {}))

    def fetch(self, pid: int, keys) -> dict[tuple[str, int],
                                            VersionedRow]:
        """Point-read a batch of keys (anti-entropy pulls winners)."""
        self._rpc()
        with self._lock:
            partition = self._store.get(pid, {})
            return {key: partition[key] for key in keys
                    if key in partition}

    def merkle(self, pid: int) -> MerkleTree:
        self._rpc()
        with self._lock:
            versions = {key: versioned.version
                        for key, versioned
                        in self._store.get(pid, {}).items()}
        return MerkleTree.build(versions)

    # -- hinted handoff ------------------------------------------------------

    def store_hint(self, hint: Hint) -> None:
        self._rpc()
        with self._lock:
            self._hints.append(hint)

    def take_hints(self) -> list[Hint]:
        self._rpc()
        with self._lock:
            hints, self._hints = self._hints, []
        return hints

    def restore_hints(self, hints: list[Hint]) -> None:
        """Re-park undeliverable hints (local, no RPC charge)."""
        with self._lock:
            self._hints = list(hints) + self._hints

    def hint_count(self) -> int:
        with self._lock:
            return len(self._hints)

    # -- introspection (local, for CLI/tests) --------------------------------

    def partition_ids(self) -> list[int]:
        with self._lock:
            return sorted(pid for pid, rows in self._store.items()
                          if rows)

    def key_count(self, pid: int | None = None) -> int:
        with self._lock:
            if pid is not None:
                return len(self._store.get(pid, {}))
            return sum(len(rows) for rows in self._store.values())

    def __repr__(self) -> str:
        return (f"ClusterNode({self.node_id!r}, "
                f"keys={self.key_count()}, hints={self.hint_count()})")
