"""ClusterEngine: single-node query semantics over the sharded store.

The parity contract — cluster results bit-identical to the single-node
engine — is met by construction rather than by reimplementing the
executor: the engine prunes the query to the partitions whose clade
intervals intersect it, quorum-reads exactly those partitions through
the router, and keeps their rows in one local overlay *view* — a plain
:class:`~repro.core.drugtree.DrugTree` recovered in global row-id
order, as a durable overlay recovers from its store — under one stock
:class:`~repro.core.query.executor.QueryEngine`.

The view lives as long as the engine and holds each row once. Per
partition the engine records the rows its last read returned and the
partition's version (``Router.partition_versions``, bumped by every
write that lands there) that read began at. A query whose partitions
are all current *reuses* the view and contacts no shard; otherwise it
quorum-reads the ones whose version moved, and the view *absorbs* the
rows writes added or is rebuilt (:meth:`ClusterEngine._load`). Rows of
partitions a query did not read may lag: its pruning band excludes
them. The engine is single-caller: its view is mutated in place.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any

from repro.cluster.node import VersionedRow
from repro.cluster.partitioning import (
    PARTITIONED_TABLES,
    partitions_for_query,
)
from repro.cluster.replication import Cluster, ClusterConfig
from repro.cluster.router import Router
from repro.core.drugtree import DrugTree
from repro.core.overlay import (
    BINDINGS_TABLE,
    LIGANDS_TABLE,
    PROTEINS_TABLE,
    bindings_schema,
    ligands_schema,
    proteins_schema,
)
from repro.core.query.ast import Query
from repro.core.query.executor import EngineConfig, QueryEngine, _intake
from repro.errors import ClusterError
from repro.obs import get_metrics
from repro.obs.explain import AnalyzeReport
from repro.sources.resilience import Deadline

#: One partition's quorum read: its rows by ``(table, row id)``.
Rows = dict[tuple[str, int], VersionedRow]


class ClusterEngine:
    """Query the cluster with single-node semantics.

    Build one with :meth:`from_drugtree` (shards an existing overlay
    into a fresh cluster) or construct directly around an
    already-seeded :class:`~repro.cluster.router.Router`.
    """

    def __init__(self, tree, router: Router,
                 config: EngineConfig | None = None) -> None:
        self.tree = tree
        self.router = router
        self.clock = router.clock
        self.partitioner = router.cluster.partitioner
        self.labeling = self.partitioner.labeling
        self.config = config or EngineConfig()
        self._schemas = {
            PROTEINS_TABLE: proteins_schema(),
            LIGANDS_TABLE: ligands_schema(),
            BINDINGS_TABLE: bindings_schema(),
        }
        #: The view, or ``None`` before the first read and after a
        #: failed load.
        self._view: QueryEngine | None = None
        #: Per partition the view holds: the partition version its last
        #: read began at, and the rows that read returned.
        self._loaded: dict[int, tuple[int, Rows]] = {}
        #: Routing facts of the most recent execute/analyze, the data
        #: behind the ``-- cluster:`` trailer.
        self.last_route: dict[str, Any] = {}

    @classmethod
    def from_drugtree(cls, drugtree: DrugTree,
                      cluster_config: ClusterConfig | None = None,
                      clock=None,
                      config: EngineConfig | None = None,
                      breaker_config=None) -> "ClusterEngine":
        """Shard an existing overlay into a freshly seeded cluster."""
        cluster = Cluster(drugtree.labeling, config=cluster_config,
                          clock=clock)
        router = Router(cluster, breaker_config=breaker_config)
        for name in (PROTEINS_TABLE, LIGANDS_TABLE, BINDINGS_TABLE):
            table = drugtree.tables[name]
            leaf_idx = (table.schema.index_of("leaf_pre")
                        if name in PARTITIONED_TABLES else None)
            for row_id, row in table.scan():
                leaf_pre = row[leaf_idx] if leaf_idx is not None else None
                router.write(name, row_id, row, leaf_pre=leaf_pre)
        return cls(drugtree.tree, router, config=config)

    # -- writes ---------------------------------------------------------------

    def insert(self, table: str, values: dict[str, Any],
               deadline: Deadline | None = None) -> int:
        """Validate and replicate one new row; returns its row id."""
        schema = self._schemas.get(table)
        if schema is None:
            raise ClusterError(f"unknown overlay table {table!r}")
        values = dict(values)
        leaf_pre = None
        if table in PARTITIONED_TABLES:
            if "leaf_pre" not in values:
                values["leaf_pre"] = self.labeling.leaf_position(
                    values["protein_id"]
                )
            leaf_pre = int(values["leaf_pre"])
        row = schema.validate_row(values)
        row_id = self.router.allocate_row_id(table)
        self.router.write(table, row_id, row, leaf_pre=leaf_pre,
                          deadline=deadline)
        return row_id

    # -- reads ----------------------------------------------------------------

    def execute(self, query: Query | str,
                deadline: Deadline | float | None = None):
        """Run a query against the cluster (AST or DTQL text).

        The deadline bounds the router's replica round-trips; local
        view execution is not charged virtual time, matching the
        single-node engine's treatment of overlay scans.
        """
        query = self._route(query, deadline)
        return self._view.execute(query)

    def analyze(self, query: Query | str,
                deadline: Deadline | float | None = None
                ) -> AnalyzeReport:
        """EXPLAIN ANALYZE through the router, with the cluster trailer."""
        query = self._route(query, deadline)
        report = self._view.analyze(query)
        report.cluster = dict(self.last_route)
        return report

    def explain_analyze(self, query: Query | str) -> str:
        return self.analyze(query).render()

    def explain(self, query: Query | str) -> str:
        query, _ = self._prepare(query, None)
        self._refresh(partitions_for_query(query, self.partitioner), None)
        return self._view.explain(query)

    # -- helpers --------------------------------------------------------------

    def _prepare(self, query, deadline):
        if deadline is not None and not isinstance(deadline, Deadline):
            deadline = Deadline(self.clock, float(deadline))
        return _intake(query), deadline

    def _route(self, query, deadline) -> Query:
        """Prune to partitions, refresh the view, record the routing."""
        query, deadline = self._prepare(query, deadline)
        pids = partitions_for_query(query, self.partitioner)
        repairs_before = self.router.stats.read_repairs
        outcome, absorbed, contacted = self._refresh(pids, deadline)
        total = len(self.partitioner.partitions)
        self.last_route = {
            "shards_contacted": contacted,
            "shards_total": total,
            "shards_pruned": total - len(pids),
            "rf": self.router.config.replication_factor,
            "read_quorum": self.router.config.read_quorum,
            "read_repairs": (self.router.stats.read_repairs
                             - repairs_before),
            "hints_queued": self.router.hints_outstanding(),
            "view": outcome,
            "rows_absorbed": absorbed,
        }
        return query

    def _refresh(self, pids, deadline: Deadline | None
                 ) -> tuple[str, int, int]:
        """Bring the view's copy of *pids* up to their partitions'
        versions, quorum-reading only the partitions whose version
        moved (every one of them when there is no view); returns how
        (``reused`` | ``absorbed`` | ``built``), how many rows it
        absorbed and how many partitions it read."""
        versions = self.router.partition_versions
        stale = {pid: versions.get(pid, 0) for pid in pids
                 if self._view is None or pid not in self._loaded
                 or self._loaded[pid][0] != versions.get(pid, 0)}
        if self._view is not None and not stale:
            outcome, absorbed = "reused", 0
        else:
            outcome, absorbed = self._load(
                self.router.read_partitions(stale, deadline), stale)
        metrics = get_metrics()
        metrics.counter(f"cluster.views.{outcome}").inc()
        if absorbed:
            metrics.counter("cluster.views.rows_absorbed").inc(absorbed)
        return outcome, absorbed, len(stale)

    def _load(self, read: dict[int, Rows], versions: dict[int, int]
              ) -> tuple[str, int]:
        """Take one quorum read (``{pid: rows}``) into the view.

        :meth:`DrugTree.load_rows` replays rows under their global row
        ids in ascending order, so every scan, index and clade-aggregate
        order — and with it every answer, float sums and stable-sort ties
        included — matches the single-node overlay's over the held
        partitions. A read that only adds rows above every id the view
        holds (:meth:`_appended_rows`) appends just those; anything else
        rebuilds the view from the held rows of the partitions the read
        skipped and the rows it returned, with no new fan-out. A failed
        read keeps the view as it was; a failed load drops it.
        """
        view, self._view = self._view, None
        fresh = self._appended_rows(view, read)
        self._loaded.update(
            (pid, (versions[pid], rows)) for pid, rows in read.items())
        if fresh is None:
            drugtree = DrugTree(self.tree)
            drugtree.load_rows(_by_table(
                item for _, rows in self._loaded.values()
                for item in rows.items()))
            drugtree.create_default_indexes()
            view = QueryEngine(drugtree, config=self.config)
        else:
            view.drugtree.load_rows(_by_table(fresh))
        self._view = view
        return ("built", 0) if fresh is None else ("absorbed", len(fresh))

    def _appended_rows(self, view: QueryEngine | None,
                       read: dict[int, Rows]) -> list | None:
        """The ``(key, versioned)`` rows *read* adds to *view* — or
        ``None`` when the view cannot absorb them: there is no view, a
        read partition is new to it (a first load is a build, so only
        written rows are ever absorbed), a row a partition held changed
        version or vanished, or a new row id is not above every id its
        table holds (a late row, or one of a partition that lagged while
        another absorbed, belongs *between* held rows)."""
        if view is None or not read.keys() <= self._loaded.keys():
            return None
        fresh = []
        for pid, rows in read.items():
            _, held = self._loaded[pid]
            if not held.items() <= rows.items():
                return None
            fresh.extend((key, rows[key]) for key in rows.keys() - held)
        tables = view.drugtree.tables
        if any(row_id < tables[table].next_row_id
               for (table, row_id), _ in fresh):
            return None
        return fresh


def _by_table(items) -> dict[str, list[tuple[int, tuple]]]:
    """``(key, versioned)`` rows as :meth:`DrugTree.load_rows` takes
    them: ``(row id, row)`` per table, ascending."""
    by_table: dict[str, list] = {}
    for (table, row_id), versioned in sorted(items, key=itemgetter(0)):
        by_table.setdefault(table, []).append((row_id, versioned.row))
    return by_table
