"""Cost-based query planner.

Lowers a query (the semantic analyzer's folded one, unless analysis
is off) to a logical plan in four steps:

1. **Predicate placement** — every predicate is pushed down to the one
   table that owns its column (shared key columns go to the bindings
   fact table when present).
2. **Subtree rewrite** — the subtree filter becomes an integer range on
   ``leaf_pre`` (interval labeling), or, with labeling disabled, an
   ``IN`` over the clade's protein ids (the ablation baseline).
3. **Access-path selection** — per table, the cheapest of sequential
   scan / hash-index equality / sorted-index range / key-set probe,
   costed with the index-driven cardinality estimator; under a
   single-table ``ORDER BY c LIMIT k``, also an ordered walk of the
   sorted index on ``c`` that stops after ``k`` matches, priced against
   the best of the others *plus* the top-k it would feed.
4. **Join ordering** — left-deep order chosen by Selinger-style dynamic
   programming (``dp``), a greedy smallest-intermediate heuristic
   (``greedy``), or the fixed canonical order (``fixed``, the naive
   baseline).

The materialized clade fast path short-circuits all of this for pure
clade-aggregate queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import TYPE_CHECKING

from repro.core.labeling import IntervalLabeling
from repro.core.overlay import (
    BINDINGS_TABLE,
    JOIN_KEYS,
    LIGANDS_TABLE,
    PROTEINS_TABLE,
)
from repro.core.query import cost as cost_model
from repro.core.query.ast import (
    COLUMN_OWNERS,
    REMOTE_DETAIL_COLUMNS,
    Band,
    Comparison,
    OrderBy,
    Query,
    SubtreeFilter,
    range_bounds,
)
from repro.core.query.cards import CardinalityEstimator
from repro.core.query.cost import Cost
from repro.core.query.logical import (
    LogicalAggregate,
    LogicalCladeAggregate,
    LogicalHaving,
    LogicalJoin,
    LogicalLimit,
    LogicalNode,
    LogicalOrder,
    LogicalProject,
    LogicalScan,
)
from repro.errors import PlanError
from repro.storage.table import Table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.query.executor import EngineConfig

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
    toggles: indexes, interval labeling, materialized aggregates, join
    strategy and join method.
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

        table_names = query.tables()
        placed = self._place_predicates(query, table_names)
        if similar_keys is not None:
            target = (LIGANDS_TABLE if LIGANDS_TABLE in table_names
                      else BINDINGS_TABLE)
            placed.setdefault(target, []).append(
                Comparison("ligand_id", "in", frozenset(similar_keys))
            )

        top = _walkable_top_k(query, table_names)
        scans: dict[str, tuple[LogicalScan, Cost]] = {}
        for table_name in table_names:
            predicates = tuple(placed.get(table_name, ()))
            scans[table_name] = self._choose_access_path(
                table_name, predicates, top)

        root, total_cost, join_order = self._order_joins(table_names, scans)
        estimated_rows = _estimated_rows(root)

        if query.aggregates:
            root = LogicalAggregate(root, query.aggregates, query.group_by)
            total_cost = total_cost + cost_model.aggregate_cost(
                estimated_rows
            )
            estimated_rows = 1.0
            if query.having:
                root = LogicalHaving(root, query.having)
        elif query.select:
            root = LogicalProject(root, query.select)

        if query.order_by is not None:
            if query.limit is not None:
                root = LogicalOrder(root, query.order_by, query.limit)
                total_cost = total_cost + cost_model.topk_cost(
                    estimated_rows, query.limit
                )
                estimated_rows = float(min(estimated_rows, query.limit))
            else:
                root = LogicalOrder(root, query.order_by)
                total_cost = total_cost + cost_model.sort_cost(
                    estimated_rows
                )
        elif query.limit is not None:
            root = LogicalLimit(root, query.limit)
            estimated_rows = float(min(estimated_rows, query.limit))

        return PlanReport(
            logical=root,
            estimated_rows=estimated_rows,
            estimated_cost=total_cost.total,
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
                            ) -> tuple[LogicalScan, Cost]:
        table = self.tables[table_name]
        output_rows = self.estimator.scan_rows(table_name, predicates)
        candidates: list[tuple[Cost, LogicalScan]] = []

        seq = LogicalScan(table_name, "seq", residual=predicates,
                          estimated_rows=output_rows)
        candidates.append((
            cost_model.seq_scan_cost(self.estimator.table_rows(table_name),
                                     len(predicates)),
            seq,
        ))

        if self.config.use_indexes:
            candidates.extend(
                self._index_candidates(table_name, table, predicates,
                                       output_rows)
            )

        best_cost, best_scan = min(candidates, key=lambda item: item[0])
        if top is not None and self.config.use_indexes:
            # The ordered walk replaces the scan *and* the top-k the
            # scan's output would go on to pay for.
            walk = self._order_candidate(table_name, table, predicates,
                                         output_rows, *top)
            if walk is not None and walk[0] < best_cost + \
                    cost_model.topk_cost(output_rows, top[1]):
                return walk[1], walk[0]
        return best_scan, best_cost

    def _order_candidate(self, table_name: str, table: Table,
                         predicates: tuple[Comparison, ...],
                         output_rows: float, order_by: OrderBy,
                         limit: int) -> tuple[Cost, LogicalScan] | None:
        """Walk the sorted index on the ORDER BY column, stop at *limit*:
        range bounds on that column bound the walk, the rest is residual,
        and it expects to touch ``limit / residual selectivity`` of the
        entries in range. Not under a key-set predicate, whose scan emits
        in key order: ties would come back in another order."""
        column = order_by.column
        if (table.index_on(column, require_range=True) is None
                or any(p.op == "in" for p in predicates)):
            return None
        bounds = tuple(range_bounds(predicates).get(column, ()))
        residual = tuple(p for p in predicates if p not in bounds)
        in_range = self.estimator.scan_rows(table_name, bounds)
        walked = min(in_range, limit * in_range / output_rows)
        scan = LogicalScan(
            table_name, "index_order", access_column=column,
            band=Band.of(bounds), residual=residual,
            estimated_rows=min(output_rows, float(limit)),
            descending=order_by.descending, limit=limit,
            estimated_walk=walked)
        return cost_model.index_order_cost(walked, len(residual)), scan

    def _index_candidates(self, table_name: str, table: Table,
                          predicates: tuple[Comparison, ...],
                          output_rows: float,
                          ) -> list[tuple[Cost, LogicalScan]]:
        candidates: list[tuple[Cost, LogicalScan]] = []
        for position, predicate in enumerate(predicates):
            residual = tuple(p for i, p in enumerate(predicates)
                             if i != position)
            if predicate.op == "=":
                index = table.index_on(predicate.column)
                if index is None:
                    continue
                matches = self.estimator.scan_rows(table_name, (predicate,))
                candidates.append((
                    cost_model.index_eq_cost(matches, len(residual)),
                    LogicalScan(table_name, "index_eq",
                                access_column=predicate.column,
                                eq_value=predicate.value,
                                residual=residual,
                                estimated_rows=output_rows),
                ))
            elif predicate.op == "in":
                index = table.index_on(predicate.column)
                if index is None:
                    continue
                keys = frozenset(predicate.value)
                matches = self.estimator.scan_rows(table_name, (predicate,))
                candidates.append((
                    cost_model.key_set_cost(len(keys), matches,
                                            len(residual)),
                    LogicalScan(table_name, "key_set",
                                access_column=predicate.column,
                                key_set=keys,
                                residual=residual,
                                estimated_rows=output_rows),
                ))
        candidates.extend(
            self._range_candidates(table_name, table, predicates,
                                   output_rows)
        )
        return candidates

    def _range_candidates(self, table_name: str, table: Table,
                          predicates: tuple[Comparison, ...],
                          output_rows: float,
                          ) -> list[tuple[Cost, LogicalScan]]:
        """Combine all range bounds on one indexed column into one scan."""
        candidates: list[tuple[Cost, LogicalScan]] = []
        for column, bounds in range_bounds(predicates).items():
            index = table.index_on(column, require_range=True)
            if index is None:
                continue
            residual = tuple(p for p in predicates if p not in bounds)
            matches = self.estimator.scan_rows(table_name, tuple(bounds))
            candidates.append((
                cost_model.index_range_cost(matches, len(residual)),
                LogicalScan(table_name, "index_range",
                            access_column=column,
                            band=Band.of(bounds),
                            residual=residual,
                            estimated_rows=output_rows),
            ))
        return candidates

    # -- join ordering ------------------------------------------------------------

    def _order_joins(self, table_names: tuple[str, ...],
                     scans: dict[str, tuple[LogicalScan, Cost]],
                     ) -> tuple[LogicalNode, Cost, tuple[str, ...]]:
        if len(table_names) == 1:
            only = table_names[0]
            scan, cost = scans[only]
            return scan, cost, (only,)

        orders: list[tuple[str, ...]]
        if self.config.join_strategy == "fixed":
            orders = [table_names]
        elif self.config.join_strategy == "greedy":
            orders = [self._greedy_order(table_names, scans)]
        else:  # dp: enumerate all connected left-deep orders
            orders = [
                order for order in permutations(table_names)
                if self._connected_prefixes(order)
            ]

        best: tuple[Cost, LogicalNode, tuple[str, ...]] | None = None
        for order in orders:
            plan, cost = self._build_left_deep(order, scans)
            if best is None or cost < best[0]:
                best = (cost, plan, order)
        if best is None:
            raise PlanError(
                f"no connected join order for tables {table_names}"
            )
        cost, plan, order = best
        return plan, cost, order

    def _greedy_order(self, table_names: tuple[str, ...],
                      scans: dict[str, tuple[LogicalScan, Cost]],
                      ) -> tuple[str, ...]:
        remaining = set(table_names)
        start = min(remaining,
                    key=lambda t: scans[t][0].estimated_rows)
        order = [start]
        remaining.discard(start)
        current_rows = scans[start][0].estimated_rows
        while remaining:
            joinable = [t for t in remaining
                        if any((t, placed) in JOIN_KEYS
                               for placed in order)]
            if not joinable:
                raise PlanError("join graph is disconnected")

            def joined_rows(candidate: str) -> float:
                partner = next(placed for placed in order
                               if (candidate, placed) in JOIN_KEYS)
                key = JOIN_KEYS[(candidate, partner)]
                return self.estimator.join_rows(
                    current_rows, scans[candidate][0].estimated_rows,
                    partner, candidate, key,
                )

            chosen = min(joinable, key=joined_rows)
            current_rows = joined_rows(chosen)
            order.append(chosen)
            remaining.discard(chosen)
        return tuple(order)

    @staticmethod
    def _connected_prefixes(order: tuple[str, ...]) -> bool:
        for position in range(1, len(order)):
            if not any((order[position], earlier) in JOIN_KEYS
                       for earlier in order[:position]):
                return False
        return True

    def _build_left_deep(self, order: tuple[str, ...],
                         scans: dict[str, tuple[LogicalScan, Cost]],
                         ) -> tuple[LogicalNode, Cost]:
        first_scan, total_cost = scans[order[0]]
        plan: LogicalNode = first_scan
        plan_rows = first_scan.estimated_rows
        joined = [order[0]]
        for table_name in order[1:]:
            scan, scan_cost = scans[table_name]
            partner = next(
                placed for placed in joined
                if (table_name, placed) in JOIN_KEYS
            )
            key = JOIN_KEYS[(table_name, partner)]
            output_rows = self.estimator.join_rows(
                plan_rows, scan.estimated_rows, partner, table_name, key,
            )
            if self.config.join_method == "hash":
                join_cost = cost_model.hash_join_cost(
                    min(plan_rows, scan.estimated_rows),
                    max(plan_rows, scan.estimated_rows),
                    output_rows,
                )
            else:
                join_cost = cost_model.nested_loop_cost(
                    plan_rows, scan_cost.total,
                )
            plan = LogicalJoin(plan, scan, key,
                               method=self.config.join_method,
                               estimated_rows=output_rows)
            total_cost = total_cost + scan_cost + join_cost
            plan_rows = output_rows
            joined.append(table_name)
        return plan, total_cost


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
