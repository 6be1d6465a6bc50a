"""The cluster router: quorum I/O, hinted handoff, anti-entropy.

The router is the only component clients talk to. It owns the lamport
version counter that orders writes, and implements the three replica
protocols:

* **Quorum reads** — contact a partition's replicas in preference
  order until ``read_quorum`` answer; unless they agree, merge
  newest-version-wins and push winners back to any contacted replica
  that returned stale or missing rows (*read repair*).
* **Sloppy-quorum writes** — try every replica of the group; a write
  succeeds with ``write_quorum`` acks, and each missed replica gets a
  :class:`~repro.cluster.node.Hint` parked on an acked node, replayed
  by :meth:`drain_hints` once the target is reachable again.
* **Merkle anti-entropy** — per replica group, compare per-partition
  merkle trees, pull the newest version of every differing key, and
  push it to the replicas that lack it, repeating rounds until a full
  round repairs nothing (:meth:`anti_entropy`); :meth:`verify` is the
  read-only check that all live replicas agree.

Per-node circuit breakers (the :class:`~repro.sources.resilience
.BreakerBoard` lifted to node identity) make a crashed node cost its
RPC timeout only ``failure_threshold`` times — after that it is
skipped instantly until its breaker half-opens. The router starts no
threads; its lock is for callers that share it across theirs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.cluster.node import ClusterNode, Hint, VersionedRow
from repro.cluster.replication import Cluster
from repro.errors import DeadlineExceededError, NodeDownError, QuorumError
from repro.obs import get_metrics, get_tracer
from repro.sources.resilience import (
    BreakerBoard,
    BreakerConfig,
    Deadline,
)

#: Breaker identity of the replica RPC path; combined with the node id
#: this yields per-node breakers named ``cluster.replica@node-N``.
BREAKER_SOURCE = "cluster"
BREAKER_KIND = "replica"


@dataclass
class RouterStats:
    """Cumulative router counters (mutated under the router lock)."""

    reads: int = 0
    writes: int = 0
    read_repairs: int = 0
    hints_queued: int = 0
    hints_delivered: int = 0
    quorum_failures: int = 0
    breaker_skips: int = 0
    node_errors: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))


@dataclass
class AntiEntropyReport:
    """What one :meth:`Router.anti_entropy` pass did."""

    rounds: int = 0
    keys_repaired: int = 0
    entries_pushed: int = 0
    groups_repaired: int = 0
    #: Partitions skipped because fewer than two replicas were live.
    groups_skipped: tuple[int, ...] = ()
    converged: bool = True

    def as_dict(self) -> dict:
        return {
            "rounds": self.rounds,
            "keys_repaired": self.keys_repaired,
            "entries_pushed": self.entries_pushed,
            "groups_repaired": self.groups_repaired,
            "groups_skipped": list(self.groups_skipped),
            "converged": self.converged,
        }


@dataclass
class VerifyReport:
    """Read-only replica agreement check across all groups."""

    groups: list[dict] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return all(group["roots_equal"] and not group["skipped"]
                   for group in self.groups)

    @property
    def divergent_keys(self) -> int:
        return sum(group["diff_keys"] for group in self.groups)

    def as_dict(self) -> dict:
        return {"converged": self.converged,
                "divergent_keys": self.divergent_keys,
                "groups": list(self.groups)}


class Router:
    """Fronts a :class:`~repro.cluster.replication.Cluster`."""

    def __init__(self, cluster: Cluster,
                 breakers: BreakerBoard | None = None,
                 breaker_config: BreakerConfig | None = None) -> None:
        self.cluster = cluster
        self.clock = cluster.clock
        self.config = cluster.config
        self.breakers = breakers or BreakerBoard(
            self.clock,
            breaker_config or BreakerConfig(failure_threshold=3,
                                            reset_timeout_s=10.0),
        )
        self._lock = threading.Lock()
        self._version = 0
        self._next_row_id: dict[str, int] = {}
        self.stats = RouterStats()
        #: Bumped on every accepted write; view caches key on it.
        self.store_version = 0

    # -- versions and row ids ------------------------------------------------

    def _next_version(self) -> int:
        with self._lock:
            self._version += 1
            return self._version

    def allocate_row_id(self, table: str) -> int:
        with self._lock:
            row_id = self._next_row_id.get(table, 0)
            self._next_row_id[table] = row_id + 1
            return row_id

    def _note_row_id(self, table: str, row_id: int) -> None:
        with self._lock:
            current = self._next_row_id.get(table, 0)
            if row_id >= current:
                self._next_row_id[table] = row_id + 1

    # -- breaker-gated RPC helper --------------------------------------------

    def _breaker_for(self, node_id: str):
        return self.breakers.breaker(BREAKER_SOURCE, BREAKER_KIND,
                                     node=node_id)

    def _call(self, node: ClusterNode, method, *args) -> tuple[bool, object]:
        """One breaker-gated RPC; ``(ok, result)``, never raises."""
        breaker = self._breaker_for(node.node_id)
        if not breaker.allow():
            with self._lock:
                self.stats.breaker_skips += 1
            return False, None
        try:
            result = method(*args)
        except NodeDownError:
            breaker.record_failure()
            with self._lock:
                self.stats.node_errors += 1
            return False, None
        breaker.record_success()
        return True, result

    # -- writes ---------------------------------------------------------------

    def write(self, table: str, row_id: int, row: tuple,
              leaf_pre: int | None = None,
              deadline: Deadline | None = None) -> int:
        """Replicate one row; returns the version stamped on it.

        Partitioned tables route by ``leaf_pre``; anything else lands
        in the global partition. Sloppy quorum: ``write_quorum`` acks
        from the replica group make the write durable, and every
        missed replica gets a hint parked on an acked node (when
        hinted handoff is on).
        """
        partitioner = self.cluster.partitioner
        if leaf_pre is not None:
            pid = partitioner.partition_for_position(leaf_pre).pid
        else:
            pid = partitioner.ligands_partition.pid
        versioned = VersionedRow(self._next_version(), row)
        group = self.cluster.group_for(pid)
        acked: list[str] = []
        missed: list[str] = []
        for node_id in group.node_ids:
            if deadline is not None and deadline.exceeded():
                raise DeadlineExceededError(
                    f"deadline exceeded writing partition {pid}"
                )
            node = self.cluster.node(node_id)
            ok, _ = self._call(node, node.put, pid, table, row_id,
                               versioned)
            (acked if ok else missed).append(node_id)
        if len(acked) < self.config.write_quorum:
            with self._lock:
                self.stats.quorum_failures += 1
            raise QuorumError(
                f"write quorum failed on partition {pid}: "
                f"{len(acked)}/{self.config.write_quorum} acks"
            )
        if missed and self.config.hinted_handoff:
            holder = self.cluster.node(acked[0])
            for target in missed:
                hint = Hint(target, pid, table, row_id, versioned)
                ok, _ = self._call(holder, holder.store_hint, hint)
                if ok:
                    with self._lock:
                        self.stats.hints_queued += 1
                    get_metrics().counter("cluster.hints.queued").inc()
        self._note_row_id(table, row_id)
        with self._lock:
            self.stats.writes += 1
            self.store_version += 1
        return versioned.version

    # -- quorum reads ---------------------------------------------------------

    def read_partition(self, pid: int,
                       deadline: Deadline | None = None
                       ) -> dict[tuple[str, int], VersionedRow]:
        """R-of-N read of one partition, merged newest-version-wins.

        Replicas that agree (every answer ``==`` the first: ``write``
        hands each the same rows) return that answer as it is.
        """
        group = self.cluster.group_for(pid)
        answers: list[tuple[ClusterNode, dict]] = []
        for node_id in group.node_ids:
            if len(answers) >= self.config.read_quorum:
                break
            if deadline is not None and deadline.exceeded():
                raise DeadlineExceededError(
                    f"deadline exceeded reading partition {pid}"
                )
            node = self.cluster.node(node_id)
            ok, data = self._call(node, node.get_partition, pid)
            if ok:
                answers.append((node, data))
        if len(answers) < self.config.read_quorum:
            with self._lock:
                self.stats.quorum_failures += 1
            raise QuorumError(
                f"read quorum failed on partition {pid}: "
                f"{len(answers)}/{self.config.read_quorum} replicas"
            )
        first = answers[0][1]
        if all(data == first for _, data in answers[1:]):
            return first
        merged: dict[tuple[str, int], VersionedRow] = {}
        for _, data in answers:
            for key, versioned in data.items():
                current = merged.get(key)
                if current is None or versioned.version > current.version:
                    merged[key] = versioned
        self._read_repair(pid, answers, merged)
        return merged

    def _read_repair(self, pid: int,
                     answers: list[tuple[ClusterNode, dict]],
                     merged: dict) -> None:
        """Push merge winners back to stale contacted replicas."""
        for node, data in answers:
            stale = {
                key: versioned for key, versioned in merged.items()
                if key not in data
                or data[key].version < versioned.version
            }
            if not stale:
                continue
            ok, repaired = self._call(node, node.put_bulk, pid, stale)
            if ok and repaired:
                with self._lock:
                    self.stats.read_repairs += int(repaired)
                get_metrics().counter(
                    "cluster.read_repairs"
                ).inc(int(repaired))

    def read_partitions(self, pids,
                        deadline: Deadline | None = None
                        ) -> dict[tuple[str, int], VersionedRow]:
        """Quorum-read many partitions as one overlapped fan-out.

        Inside ``clock.concurrently()`` each partition's replica
        round-trips are charged on its own task timeline (in pid
        order, on the calling thread), so total virtual latency is the
        slowest shard, not the sum — the same contract as the fetch
        scheduler's scatter/gather. Every partition is read, or fails,
        before the join; the first failure is raised after it.
        """
        pids = sorted(set(pids))
        self.drain_hints()
        merged: dict[tuple[str, int], VersionedRow] = {}
        if not pids:
            return merged
        first_error: Exception | None = None
        with get_tracer().span("cluster.fanout") as span:
            span.set("partitions", len(pids))
            with self.clock.concurrently() as region:
                # Partitions are disjoint keyspaces: plain union.
                for pid in pids:
                    try:
                        with region.task():
                            merged.update(
                                self.read_partition(pid, deadline))
                    except (QuorumError, DeadlineExceededError) as exc:
                        first_error = first_error or exc
            if first_error is not None:
                raise first_error
        with self._lock:
            self.stats.reads += 1
        get_metrics().counter("cluster.reads").inc()
        return merged

    # -- hinted handoff -------------------------------------------------------

    def drain_hints(self) -> int:
        """Deliver parked hints whose targets are reachable again.

        Called opportunistically before every fan-out read (the
        simulation's stand-in for the gossip-triggered replay real
        stores run); undeliverable hints are re-parked.
        """
        delivered = 0
        for node_id in self.cluster.node_ids:
            node = self.cluster.node(node_id)
            if node.hint_count() == 0 or node.is_down():
                continue
            ok, hints = self._call(node, node.take_hints)
            if not ok:
                continue
            keep: list[Hint] = []
            for hint in hints:
                target = self.cluster.node(hint.target)
                if target.is_down():
                    keep.append(hint)
                    continue
                ok, _ = self._call(target, target.put, hint.pid,
                                   hint.table, hint.row_id,
                                   hint.versioned)
                if ok:
                    delivered += 1
                else:
                    keep.append(hint)
            if keep:
                node.restore_hints(keep)
        if delivered:
            with self._lock:
                self.stats.hints_delivered += delivered
            get_metrics().counter(
                "cluster.hints.delivered"
            ).inc(delivered)
        return delivered

    def hints_outstanding(self) -> int:
        return sum(self.cluster.node(node_id).hint_count()
                   for node_id in self.cluster.node_ids)

    # -- merkle anti-entropy --------------------------------------------------

    def anti_entropy(self, max_rounds: int = 4) -> AntiEntropyReport:
        """Repair every replica group until a full round is a no-op.

        Each round, per group: compare the live replicas' merkle
        trees; for every differing key pull the newest version from
        whichever replica holds it and push it to the replicas that
        lack it. Newest-wins repair is monotone, so with stable faults
        one round converges a group and the second round proves it —
        ``rounds`` is bounded by ``max_rounds`` regardless.
        """
        report = AntiEntropyReport()
        repaired_keys: set = set()
        skipped: set[int] = set()
        for _ in range(max_rounds):
            report.rounds += 1
            round_pushes = 0
            for pid in sorted(self.cluster.groups):
                pushes, keys, group_skipped = self._repair_group(pid)
                round_pushes += pushes
                repaired_keys.update(keys)
                if group_skipped:
                    skipped.add(pid)
                elif pushes:
                    report.groups_repaired += 1
            if round_pushes == 0:
                break
            report.entries_pushed += round_pushes
        report.keys_repaired = len(repaired_keys)
        report.groups_skipped = tuple(sorted(skipped))
        report.converged = not skipped and self.verify().converged
        get_metrics().counter(
            "cluster.repair.keys"
        ).inc(report.keys_repaired)
        return report

    def _live_replicas(self, pid: int) -> list[ClusterNode]:
        group = self.cluster.group_for(pid)
        return [self.cluster.node(node_id)
                for node_id in group.node_ids
                if not self.cluster.node(node_id).is_down()]

    def _repair_group(self, pid: int) -> tuple[int, set, bool]:
        """One repair pass over one group: ``(pushes, keys, skipped)``."""
        live = self._live_replicas(pid)
        if len(live) < 2:
            return 0, set(), len(live) < len(
                self.cluster.group_for(pid).node_ids)
        trees = []
        for node in live:
            ok, tree = self._call(node, node.merkle, pid)
            if ok:
                trees.append((node, tree))
        if len(trees) < 2:
            return 0, set(), True
        reference = trees[0][1]
        if all(tree.root_hash == reference.root_hash
               for _, tree in trees[1:]):
            return 0, set(), False
        # Any key differing between two replicas differs from the
        # reference on at least one of them, so its diffs cover all.
        diff_keys: set = set()
        for _, tree in trees[1:]:
            diff_keys.update(reference.diff_keys(tree))
        # Pull each key's newest version from the replica that has it.
        wanted: dict[ClusterNode, list] = {}
        winners_version: dict[tuple, int] = {}
        for key in sorted(diff_keys):
            best_node, best_version = None, -1
            for node, tree in trees:
                version = tree.versions.get(key, -1)
                if version > best_version:
                    best_node, best_version = node, version
            wanted.setdefault(best_node, []).append(key)
            winners_version[key] = best_version
        winners: dict[tuple, VersionedRow] = {}
        for node, keys in wanted.items():
            ok, rows = self._call(node, node.fetch, pid, keys)
            if ok:
                winners.update(rows)
        # Push winners to every replica holding less.
        pushes = 0
        pushed_keys: set = set()
        for node, tree in trees:
            needed = {
                key: versioned for key, versioned in winners.items()
                if tree.versions.get(key, -1) < versioned.version
            }
            if not needed:
                continue
            ok, applied = self._call(node, node.put_bulk, pid, needed)
            if ok:
                pushes += int(applied)
                pushed_keys.update(needed)
        return pushes, pushed_keys, False

    def verify(self) -> VerifyReport:
        """Do all live replicas of every group agree? (Read-only.)"""
        report = VerifyReport()
        for pid in sorted(self.cluster.groups):
            group = self.cluster.group_for(pid)
            live = self._live_replicas(pid)
            trees = []
            for node in live:
                ok, tree = self._call(node, node.merkle, pid)
                if ok:
                    trees.append(tree)
            skipped = len(trees) < len(group.node_ids)
            roots_equal = (len({tree.root_hash for tree in trees}) <= 1
                           if trees else False)
            diff_keys: set = set()
            if trees and not roots_equal:
                reference = trees[0]
                for tree in trees[1:]:
                    diff_keys.update(reference.diff_keys(tree))
            report.groups.append({
                "pid": pid,
                "replicas": list(group.node_ids),
                "live": [node.node_id for node in live],
                "roots_equal": roots_equal,
                "diff_keys": len(diff_keys),
                "skipped": skipped,
            })
        return report
