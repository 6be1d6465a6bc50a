"""ClusterEngine: single-node query semantics over the sharded store.

The parity contract — cluster results bit-identical to the single-node
engine — is met by construction rather than by reimplementing the
executor: the engine prunes the query to the partitions whose clade
intervals intersect it, quorum-reads exactly those partitions through
the router, materializes the rows into a local overlay *view* (a plain
:class:`~repro.core.drugtree.DrugTree` recovered from those rows in
global row-id order, the way a durable overlay recovers from its store,
so every scan and index path emits rows in the same order as the
single-node engine), indexes it, and then delegates to a stock
:class:`~repro.core.query.executor.QueryEngine`, whose planner prices
from the view's own indexes.

Views are kept per partition set for the engine's life — pruning
yields at most P(P+1)+1 non-empty sets over P interval partitions —
so a session re-reading a clade pays the fan-out once until a write
moves the store version. The read after a write quorum-reads again
(agreeing replicas cost one dict compare), and a view whose rows all
came back unchanged *absorbs* the rows the write added — appended in
global row-id order, exactly what a live insert does to the
single-node overlay — instead of being rebuilt; anything else
rebuilds it. The engine is single-caller: its views are mutated in
place.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass
class _ClusterView:
    """One materialized subset of the cluster, plus its query engine."""

    drugtree: DrugTree
    engine: QueryEngine
    store_version: int
    #: What the quorum read the overlay was last loaded from returned:
    #: exactly the rows it holds, at the versions it holds them.
    loaded: dict[tuple[str, int], VersionedRow]
    #: How the latest request got this view — ``reused`` | ``absorbed``
    #: | ``built`` — and how many rows it absorbed on the way.
    outcome: str = "built"
    rows_absorbed: int = 0

    def appended_keys(self, merged: dict[tuple[str, int], VersionedRow],
                      ) -> list[tuple[str, int]] | None:
        """The keys *merged* adds to this view, ascending — or ``None``
        when the view cannot absorb them: a row it holds changed
        version or vanished, or a new row id is not above every id its
        table has seen (a late row belongs *between* loaded rows)."""
        if not self.loaded.items() <= merged.items():
            return None
        fresh = sorted(merged.keys() - self.loaded.keys())
        tables = self.drugtree.tables
        if any(row_id < tables[table].next_row_id
               for table, row_id in fresh):
            return None
        return fresh


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
        query, view = self._route(query, deadline)
        return view.engine.execute(query)

    def analyze(self, query: Query | str,
                deadline: Deadline | float | None = None
                ) -> AnalyzeReport:
        """EXPLAIN ANALYZE through the router, with the cluster trailer."""
        query, view = self._route(query, deadline)
        report = view.engine.analyze(query)
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

    def _route(self, query, deadline) -> tuple[Query, _ClusterView]:
        """Prune to partitions, get their view, record the routing."""
        query, deadline = self._prepare(query, deadline)
        pids = partitions_for_query(query, self.partitioner)
        repairs_before = self.router.stats.read_repairs
        view = self._view(frozenset(pids), deadline)
        total = len(self.partitioner.partitions)
        self.last_route = {
            "shards_contacted": len(pids),
            "shards_total": total,
            "shards_pruned": total - len(pids),
            "rf": self.router.config.replication_factor,
            "read_quorum": self.router.config.read_quorum,
            "read_repairs": (self.router.stats.read_repairs
                             - repairs_before),
            "hints_queued": self.router.hints_outstanding(),
            "view": view.outcome,
            "rows_absorbed": view.rows_absorbed,
        }
        return query, view

    def _view(self, pids: frozenset[int],
              deadline: Deadline | None) -> _ClusterView:
        view = self._views.get(pids)
        if (view is not None
                and view.store_version == self.router.store_version):
            view.outcome, view.rows_absorbed = "reused", 0
        else:
            view = self._views[pids] = self._materialize(pids, deadline)
        metrics = get_metrics()
        metrics.counter(f"cluster.views.{view.outcome}").inc()
        if view.rows_absorbed:
            metrics.counter("cluster.views.rows_absorbed").inc(
                view.rows_absorbed)
        return view

    def _materialize(self, pids: frozenset[int],
                     deadline: Deadline | None) -> _ClusterView:
        """Quorum-read the partitions into a local overlay.

        The view is a recovered overlay: :meth:`DrugTree.load_rows`
        replays the rows under their global row ids in ascending order,
        so insertion order — and with it every scan order, index row-id
        order, and clade-aggregate accumulation order — matches the
        single-node overlay restricted to these partitions, which is
        what makes results (including float aggregates and stable-sort
        ties) bit-identical. A cached view the read only adds rows to
        (:meth:`_ClusterView.appended_keys`) takes just those rows
        through the same loader, which keeps that order; any other
        difference builds a fresh overlay. The cached view leaves the
        cache before it is touched: a failed read keeps it as it was,
        a failed load drops it — a half-loaded view is never served.
        """
        store_version = self.router.store_version
        merged = self.router.read_partitions(pids, deadline)
        view = self._views.pop(pids, None)
        fresh = None if view is None else view.appended_keys(merged)
        if fresh is None:
            drugtree = DrugTree(self.tree)
            self._load(drugtree, merged, sorted(merged))
            drugtree.create_default_indexes()
            return _ClusterView(
                drugtree, QueryEngine(drugtree, config=self.config),
                store_version, merged)
        self._load(view.drugtree, merged, fresh)
        view.store_version, view.loaded = store_version, merged
        view.outcome, view.rows_absorbed = "absorbed", len(fresh)
        return view

    def _load(self, drugtree: DrugTree, merged: dict, keys: list) -> None:
        """Append the rows of *keys* (ascending) to *drugtree*."""
        by_table: dict[str, list] = {}
        for table, row_id in keys:
            by_table.setdefault(table, []).append(
                (row_id, merged[table, row_id].row))
        drugtree.load_rows(by_table)
