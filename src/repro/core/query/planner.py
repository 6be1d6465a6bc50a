"""Cost-based query planner.

Lowers a query (the semantic analyzer's folded one, unless analysis
is off) to a logical plan in four steps:

1. **Predicate placement** — every predicate is pushed down to the one
   table that owns its column (shared key columns go to the bindings
   fact table when present).
2. **Subtree rewrite** — the subtree filter becomes an integer range on
   ``leaf_pre`` (interval labeling), or, with labeling disabled, an
   ``IN`` over the clade's protein ids (the ablation baseline).
3. **Access-path selection** — per table, one pass over the
   estimator's terms (each ``=``/``!=``/``IN`` alone, each column's
   range bounds as one band, each with its index count) prices the
   sequential scan against a hash-index equality, key-set probe or
   sorted-index range read per term an index serves; under a
   single-table ``ORDER BY c LIMIT k``, also an ordered walk of the
   sorted index on ``c`` that stops after ``k`` matches, priced against
   the best of the others *plus* the top-k it would feed.
4. **Join ordering** — the cheaper of at most two fixed left-deep
   orders, both starting with ``bindings`` (every join key joins it,
   so for the overlay's three tables only the order of the two
   dimension tables is open). Each join builds on its dimension
   table and ``bindings`` probes it, so rows come in ``bindings`` row-id
   order; a bare ``bindings`` scan may instead read only the build
   side's keys through a hash index on the join key (a keyed probe),
   when that costs less than the scan's own path. The unoptimized floor
   is :class:`~repro.core.baseline.NaiveEngine`.

The materialized clade fast paths short-circuit all of this for pure
clade-aggregate queries and for a clade's top-k by ``p_affinity``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from operator import itemgetter
from typing import TYPE_CHECKING

from repro.core.labeling import IntervalLabeling
from repro.core.overlay import (
    BINDINGS_TABLE,
    CLADE_TOP_K,
    JOIN_KEYS,
    LIGANDS_TABLE,
    PROTEINS_TABLE,
)
from repro.core.query import cost as cost_model
from repro.core.query.ast import (
    COLUMN_OWNERS,
    RANGE_OPS,
    REMOTE_DETAIL_COLUMNS,
    Band,
    Comparison,
    OrderBy,
    Query,
    SubtreeFilter,
)
from repro.core.query.cards import CardinalityEstimator
from repro.core.query.logical import (
    LogicalAggregate,
    LogicalCladeAggregate,
    LogicalCladeTopK,
    LogicalHaving,
    LogicalJoin,
    LogicalLimit,
    LogicalNode,
    LogicalOrder,
    LogicalProject,
    LogicalScan,
)
from repro.errors import PlanError
from repro.storage.index import HashIndex
from repro.storage.table import Table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.query.executor import EngineConfig

#: A table's chosen scan, its cost and the predicates placed on it.
_Access = tuple[LogicalScan, float, tuple[Comparison, ...]]

#: Aggregates answerable straight from the clade materialized stats.
_CLADE_FAST_AGGS = {
    ("count", "*"), ("count", "p_affinity"),
    ("mean", "p_affinity"), ("max", "p_affinity"),
    ("sum", "p_affinity"),
}


@dataclass
class PlanReport:
    """What the planner decided and what it expected (for E7)."""

    logical: LogicalNode
    estimated_rows: float = 0.0
    estimated_cost: float = 0.0
    join_order: tuple[str, ...] = ()

    def explain(self) -> str:
        header = (
            f"-- cost={self.estimated_cost:.1f} "
            f"rows~{self.estimated_rows:.0f} "
            f"order={'>'.join(self.join_order) or '-'}"
        )
        return f"{header}\n{self.logical.explain()}"


class Planner:
    """Builds logical plans against one DrugTree's overlay.

    Reads its engine's :class:`~repro.core.query.executor.EngineConfig`
    toggles: indexes, interval labeling and materialized aggregates.
    """

    def __init__(self, tables: dict[str, Table],
                 labeling: IntervalLabeling,
                 estimator: CardinalityEstimator,
                 config: EngineConfig) -> None:
        self.tables = tables
        self.labeling = labeling
        self.estimator = estimator
        self.config = config

    # -- entry point ---------------------------------------------------------

    def plan(self, query: Query,
             similar_keys: frozenset[str] | None = None) -> PlanReport:
        """Produce a plan. *similar_keys* is the pre-resolved ligand-id
        set of the query's similarity filter (the executor resolves it
        through the fingerprint library before planning)."""
        fast = self._try_clade_fast_path(query)
        if fast is not None:
            return PlanReport(fast, estimated_rows=1.0, estimated_cost=1.0)
        fast = self._try_clade_top_k(query)
        if fast is not None:
            return PlanReport(fast, estimated_rows=float(fast.limit),
                              estimated_cost=1.0)

        table_names = query.tables()
        placed = self._place_predicates(query, table_names)
        if similar_keys is not None:
            target = (LIGANDS_TABLE if LIGANDS_TABLE in table_names
                      else BINDINGS_TABLE)
            placed.setdefault(target, []).append(
                Comparison("ligand_id", "in", frozenset(similar_keys))
            )

        top = _walkable_top_k(query, table_names)
        scans: dict[str, _Access] = {}
        for table_name in table_names:
            predicates = tuple(placed.get(table_name, ()))
            scans[table_name] = (*self._choose_access_path(
                table_name, predicates, top), predicates)

        root, total_cost, join_order = self._order_joins(table_names, scans)
        estimated_rows = _estimated_rows(root)

        if query.aggregates:
            root = LogicalAggregate(root, query.aggregates, query.group_by)
            total_cost += cost_model.aggregate_cost(estimated_rows)
            estimated_rows = 1.0
            if query.having:
                root = LogicalHaving(root, query.having)
        elif query.select:
            root = LogicalProject(root, query.select)

        if query.order_by is not None:
            if query.limit is not None:
                root = LogicalOrder(root, query.order_by, query.limit)
                total_cost += cost_model.topk_cost(estimated_rows,
                                                   query.limit)
                estimated_rows = float(min(estimated_rows, query.limit))
            else:
                root = LogicalOrder(root, query.order_by)
                total_cost += cost_model.sort_cost(estimated_rows)
        elif query.limit is not None:
            root = LogicalLimit(root, query.limit)
            estimated_rows = float(min(estimated_rows, query.limit))

        return PlanReport(
            logical=root,
            estimated_rows=estimated_rows,
            estimated_cost=total_cost,
            join_order=join_order,
        )

    # -- clade fast path -------------------------------------------------------

    def _try_clade_fast_path(self, query: Query) -> LogicalNode | None:
        if not self.config.use_materialized_aggregates:
            return None
        if query.subtree is None or not query.aggregates:
            return None
        if (query.predicates or query.similar or query.group_by
                or query.select or query.having):
            return None
        if query.tables() != (BINDINGS_TABLE,):
            return None
        for aggregate in query.aggregates:
            if (aggregate.func, aggregate.column) not in _CLADE_FAST_AGGS:
                return None
        if not self.labeling.has_name(query.subtree.node_name):
            return None
        return LogicalCladeAggregate(query.subtree.node_name,
                                     query.aggregates)

    def _try_clade_top_k(self, query: Query) -> LogicalNode | None:
        """``bindings`` alone, ``ORDER BY p_affinity DESC LIMIT k <=
        CLADE_TOP_K``, no filter but numeric lower bounds on it and an
        optional ``IN SUBTREE``, a SELECT the walk could serve too."""
        limit, name = query.limit, query.subtree and query.subtree.node_name
        if (not self.config.use_materialized_aggregates
                or query.order_by != OrderBy("p_affinity", descending=True)
                or limit is None or limit > CLADE_TOP_K
                or query.tables() != (BINDINGS_TABLE,)
                or _walkable_top_k(query, query.tables()) is None
                or name and not self.labeling.has_name(name)
                or any(p.column != "p_affinity" or p.op not in (">=", ">")
                       or type(p.value) not in (int, float)
                       for p in query.predicates)):
            return None
        columns = (query.select
                   or self.tables[BINDINGS_TABLE].schema.column_names)
        return LogicalCladeTopK(name, query.predicates, limit, columns)

    # -- predicate placement ------------------------------------------------

    def _place_predicates(self, query: Query,
                          table_names: tuple[str, ...],
                          ) -> dict[str, list[Comparison]]:
        placed: dict[str, list[Comparison]] = {}
        for predicate in query.predicates:
            owners = [t for t in COLUMN_OWNERS[predicate.column]
                      if t in table_names]
            if not owners:
                raise PlanError(
                    f"predicate {predicate} references no queried table"
                )
            # Shared key columns restrict best at the fact table.
            target = (BINDINGS_TABLE if BINDINGS_TABLE in owners
                      else owners[0])
            placed.setdefault(target, []).append(predicate)

        if query.subtree is not None:
            target = (BINDINGS_TABLE if BINDINGS_TABLE in table_names
                      else PROTEINS_TABLE)
            placed.setdefault(target, []).extend(
                self._subtree_predicates(query.subtree)
            )
        return placed

    def _subtree_predicates(self,
                            subtree: SubtreeFilter) -> list[Comparison]:
        if self.config.use_interval_labeling:
            return list(subtree.bounds(self.labeling))
        # Ablation baseline: enumerate the clade by actually walking the
        # tree (the pre-labeling behaviour), then filter by name set.
        target = None
        for node in self.labeling.tree.preorder():
            if node.name == subtree.node_name:
                target = node
                break
        if target is None:
            raise PlanError(f"no tree node named {subtree.node_name!r}")
        names = frozenset(leaf.name for leaf in target.leaves())
        return [Comparison("protein_id", "in", names)]

    # -- access paths ------------------------------------------------------------

    def _choose_access_path(self, table_name: str,
                            predicates: tuple[Comparison, ...],
                            top: tuple[OrderBy, int] | None = None,
                            ) -> tuple[LogicalScan, float]:
        """The cheapest read of *table_name* under *predicates*, priced
        in one pass over the estimate's terms: the sequential scan, then
        an index read per term an index serves (the first of equal
        prices wins) and, under *top*, an ordered walk of the sorted
        index on the ORDER BY column."""
        table = self.tables[table_name]
        estimator = self.estimator
        terms = estimator.terms(table_name, predicates)
        output_rows = estimator.rows_under(
            table_name, [count for _, count in terms])
        best_cost = cost_model.seq_scan_cost(
            estimator.table_rows(table_name), len(predicates))
        best = LogicalScan(table_name, "seq", residual=predicates,
                           estimated_rows=output_rows)
        if not self.config.use_indexes:
            return best, best_cost
        walk_bounds, walk_count = (), None
        singles = (i for i, p in enumerate(predicates)
                   if p.op not in RANGE_OPS)
        for term, count in terms:
            column, op = term[0].column, term[0].op
            keys = 1
            if op in RANGE_OPS:
                if top is not None and column == top[0].column:
                    walk_bounds, walk_count = term, count
                if table.index_on(column, require_range=True) is None:
                    continue
                residual = tuple(p for p in predicates if p not in term)
                access, extra = "index_range", {"band": Band.of(term)}
            else:
                # The residual drops this predicate, not its equals.
                position = next(singles)
                if op == "!=" or table.index_on(column) is None:
                    continue
                residual = predicates[:position] + predicates[position + 1:]
                if op == "=":
                    access, extra = "index_eq", {"eq_value": term[0].value}
                else:
                    key_set = frozenset(term[0].value)
                    keys = len(key_set)
                    access, extra = "key_set", {"key_set": key_set}
            price = cost_model.index_cost(
                estimator.rows_under(table_name, [count]), len(residual),
                keys)
            if price < best_cost:
                best_cost = price
                best = LogicalScan(table_name, access, access_column=column,
                                   residual=residual,
                                   estimated_rows=output_rows, **extra)
        if top is None or table.index_on(top[0].column,
                                         require_range=True) is None:
            return best, best_cost
        order_by, limit = top
        # The walk reads the band on its column, stops after *limit*
        # matches, and expects to touch ``limit / residual selectivity``
        # of the entries in range; it replaces the scan *and* the top-k
        # the scan's output would go on to pay for.
        in_range = estimator.rows_under(
            table_name, [walk_count] if walk_bounds else [])
        walked = min(in_range, limit * in_range / output_rows)
        residual = tuple(p for p in predicates if p not in walk_bounds)
        price = cost_model.index_order_cost(walked, len(residual))
        if not price < best_cost + cost_model.topk_cost(output_rows, limit):
            return best, best_cost
        return LogicalScan(
            table_name, "index_order", access_column=order_by.column,
            band=Band.of(walk_bounds), residual=residual,
            estimated_rows=min(output_rows, float(limit)),
            descending=order_by.descending, limit=limit,
            estimated_walk=walked), price

    # -- join ordering ------------------------------------------------------------

    def _order_joins(self, table_names: tuple[str, ...],
                     scans: dict[str, _Access],
                     ) -> tuple[LogicalNode, float, tuple[str, ...]]:
        """The cheaper of the (at most two) left-deep orders that start
        with the first table, the first on a tie. A join always holds
        ``bindings``, which comes first and joins every key: it is the
        probe side of every join, each dimension table a build side."""
        first, *rest = table_names
        built = [(*self._build_left_deep(order, scans), order)
                 for order in ((first, *dims) for dims in permutations(rest))]
        return min(built, key=itemgetter(1))

    def _build_left_deep(self, order: tuple[str, ...],
                         scans: dict[str, _Access],
                         ) -> tuple[LogicalNode, float]:
        """Join *order*'s dimension tables onto its ``bindings`` scan,
        each building its hash table; the first join's bindings scan
        may read only the build side's keys (a keyed probe)."""
        plan, total_cost, predicates = scans[order[0]]
        for table_name in order[1:]:
            scan, scan_cost, _ = scans[table_name]
            key = JOIN_KEYS[(BINDINGS_TABLE, table_name)]
            output_rows = self.estimator.join_rows(
                plan.estimated_rows, scan.estimated_rows, BINDINGS_TABLE,
                table_name, key,
            )
            if isinstance(plan, LogicalScan):
                plan, total_cost = self._keyed_probe(
                    plan, total_cost, predicates, key,
                    scan.estimated_rows, table_name)
            join_cost = cost_model.hash_join_cost(
                scan.estimated_rows, plan.estimated_rows, output_rows,
            )
            plan = LogicalJoin(plan, scan, key, estimated_rows=output_rows)
            total_cost = total_cost + scan_cost + join_cost
        return plan, total_cost

    def _keyed_probe(self, scan: LogicalScan, cost: float,
                     predicates: tuple[Comparison, ...], key: str,
                     build_rows: float, build_table: str,
                     ) -> tuple[LogicalScan, float]:
        """*scan* as the probe side of a join on *key*: a keyed probe,
        which looks up each distinct build key in the hash index on
        *key* and keeps *predicates* as its residual, when that costs
        less than *scan*'s own path; else *scan* itself. It expects
        ``min(build rows, ndv of the build key)`` keys, each matching
        ``table rows / ndv`` rows."""
        table = self.tables[scan.table]
        if not (self.config.use_indexes
                and isinstance(table.index_on(key), HashIndex)):
            return scan, cost
        estimator = self.estimator
        keys = min(build_rows, estimator.distinct(build_table, key))
        ndv = max(estimator.distinct(scan.table, key), 1.0)
        keyed_cost = cost_model.index_cost(
            keys * estimator.table_rows(scan.table) / ndv, len(predicates),
            keys)
        if not keyed_cost < cost:
            return scan, cost
        return LogicalScan(scan.table, "join_keys", access_column=key,
                           residual=predicates,
                           estimated_rows=keys * scan.estimated_rows / ndv,
                           ), keyed_cost


def _walkable_top_k(query: Query, table_names: tuple[str, ...],
                    ) -> tuple[OrderBy, int] | None:
    """``(ORDER BY, k)`` when an ordered index walk may serve *query*:
    one table, no aggregation, and a SELECT list that keeps the sort
    column (dropped, every key reads NULL above the projection and the
    "order" is scan order) and fetches no remote detail column."""
    if (query.order_by is None or query.limit is None
            or len(table_names) != 1 or query.aggregates):
        return None
    if query.select and (
            query.order_by.column not in query.select
            or any(c in REMOTE_DETAIL_COLUMNS for c in query.select)):
        return None
    return query.order_by, query.limit


def _estimated_rows(node: LogicalNode) -> float:
    estimated = getattr(node, "estimated_rows", None)
    if estimated is not None:
        return float(estimated)
    children = node.children()
    return _estimated_rows(children[-1]) if children else 1.0
