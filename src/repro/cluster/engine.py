"""ClusterEngine: single-node query semantics over the sharded store.

The parity contract — cluster results bit-identical to the single-node
engine — is met by construction rather than by reimplementing the
executor: the engine prunes the query to the partitions whose clade
intervals intersect it, quorum-reads exactly those partitions through
the router, materializes the rows into a local overlay *view* (a plain
:class:`~repro.core.drugtree.DrugTree` recovered from those rows in
global row-id order, the way a durable overlay recovers from its store,
so every scan and index path emits rows in the same order as the
single-node engine), has it adopt the cluster-wide table statistics so
the planner makes the same choices, and then delegates
to a stock :class:`~repro.core.query.executor.QueryEngine`.

Views are cached per ``(partition set, store version)``, so a
navigation session re-reading the same clade pays the fan-out once
until a write invalidates it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

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
from repro.obs.explain import AnalyzeReport
from repro.sources.resilience import Deadline

#: Cached materialized views kept per engine (a navigation session
#: typically alternates between a clade view and the full view).
_VIEW_CACHE_CAPACITY = 4


@dataclass
class _ClusterView:
    """One materialized subset of the cluster, plus its query engine."""

    drugtree: DrugTree
    engine: QueryEngine
    store_version: int
    pids: frozenset[int]


class ClusterEngine:
    """Query the cluster with single-node semantics.

    Build one with :meth:`from_drugtree` (shards an existing overlay
    into a fresh cluster) or construct directly around an
    already-seeded :class:`~repro.cluster.router.Router`.
    """

    def __init__(self, tree, router: Router,
                 statistics: dict | None = None,
                 config: EngineConfig | None = None) -> None:
        self.tree = tree
        self.router = router
        self.clock = router.clock
        self.partitioner = router.cluster.partitioner
        self.labeling = self.partitioner.labeling
        self.config = config or EngineConfig()
        #: Cluster-wide table statistics injected into every view so
        #: planner decisions match the single-node engine.
        self.statistics = dict(statistics or {})
        self._schemas = {
            PROTEINS_TABLE: proteins_schema(),
            LIGANDS_TABLE: ligands_schema(),
            BINDINGS_TABLE: bindings_schema(),
        }
        self._views: dict[frozenset[int], _ClusterView] = {}
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
        return cls(drugtree.tree, router,
                   statistics=dict(drugtree.statistics), config=config)

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
        query, deadline = self._prepare(query, deadline)
        pids = partitions_for_query(query, self.partitioner)
        route = self._route_base(pids)
        repairs_before = self.router.stats.read_repairs
        view = self._view(frozenset(pids), deadline)
        result = view.engine.execute(query)
        self._finish_route(route, repairs_before)
        return result

    def analyze(self, query: Query | str,
                deadline: Deadline | float | None = None
                ) -> AnalyzeReport:
        """EXPLAIN ANALYZE through the router, with the cluster trailer."""
        query, deadline = self._prepare(query, deadline)
        pids = partitions_for_query(query, self.partitioner)
        route = self._route_base(pids)
        repairs_before = self.router.stats.read_repairs
        view = self._view(frozenset(pids), deadline)
        report = view.engine.analyze(query)
        self._finish_route(route, repairs_before)
        report.cluster = dict(self.last_route)
        return report

    def explain_analyze(self, query: Query | str) -> str:
        return self.analyze(query).render()

    def explain(self, query: Query | str) -> str:
        query, _ = self._prepare(query, None)
        pids = partitions_for_query(query, self.partitioner)
        view = self._view(frozenset(pids), None)
        return view.engine.explain(query)

    # -- helpers --------------------------------------------------------------

    def _prepare(self, query, deadline):
        if deadline is not None and not isinstance(deadline, Deadline):
            deadline = Deadline(self.clock, float(deadline))
        return _intake(query), deadline

    def _route_base(self, pids) -> dict[str, Any]:
        total = len(self.partitioner.partitions)
        return {
            "shards_contacted": len(pids),
            "shards_total": total,
            "shards_pruned": total - len(pids),
            "rf": self.router.config.replication_factor,
            "read_quorum": self.router.config.read_quorum,
        }

    def _finish_route(self, route: dict[str, Any],
                      repairs_before: int) -> None:
        route["read_repairs"] = (self.router.stats.read_repairs
                                 - repairs_before)
        route["hints_queued"] = self.router.hints_outstanding()
        self.last_route = route

    def _view(self, pids: frozenset[int],
              deadline: Deadline | None) -> _ClusterView:
        cached = self._views.get(pids)
        if (cached is not None
                and cached.store_version == self.router.store_version):
            # LRU touch: move to the end of the (ordered) dict.
            self._views.pop(pids)
            self._views[pids] = cached
            return cached
        view = self._materialize(pids, deadline)
        self._views.pop(pids, None)
        while len(self._views) >= _VIEW_CACHE_CAPACITY:
            self._views.pop(next(iter(self._views)))
        self._views[pids] = view
        return view

    def _materialize(self, pids: frozenset[int],
                     deadline: Deadline | None) -> _ClusterView:
        """Quorum-read the partitions into a fresh local overlay.

        The view is a recovered overlay: :meth:`DrugTree.load_rows`
        replays the rows under their global row ids in ascending order,
        so insertion order — and with it every scan order, index row-id
        order, and clade-aggregate accumulation order — matches the
        single-node overlay restricted to these partitions, which is
        what makes results (including float aggregates and stable-sort
        ties) bit-identical.
        """
        store_version = self.router.store_version
        merged = self.router.read_partitions(pids, deadline)
        by_table: dict[str, list] = {}
        for table, row_id in sorted(merged):
            by_table.setdefault(table, []).append(
                (row_id, merged[table, row_id].row))
        drugtree = DrugTree(self.tree)
        drugtree.load_rows(by_table)
        drugtree.create_default_indexes()
        if self.statistics:
            # Cluster-wide statistics, not the subset's: the planner
            # must cost plans exactly like the single-node engine.
            drugtree.adopt_statistics(self.statistics)
        engine = QueryEngine(drugtree, config=self.config)
        return _ClusterView(drugtree=drugtree, engine=engine,
                            store_version=store_version,
                            pids=pids)
