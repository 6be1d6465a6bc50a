"""Logical plan nodes.

The planner lowers a folded :class:`~repro.core.query.ast.Query`
into this small relational algebra, then converts it to physical
operators. Keeping the logical layer explicit makes plans printable
(``EXPLAIN``) and lets the optimizer tests assert on plan *shape*
independently of execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.query.ast import (
    AggregateSpec,
    Band,
    Comparison,
    HavingCondition,
    OrderBy,
)


class LogicalNode:
    """Base class; concrete nodes are dataclasses below."""

    def children(self) -> tuple["LogicalNode", ...]:
        return ()

    def describe(self) -> str:
        return type(self).__name__

    def explain(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.describe()]
        lines.extend(
            child.explain(indent + 1) for child in self.children()
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class LogicalScan(LogicalNode):
    """Read one table through a chosen access path."""

    table: str
    #: "seq" | "index_eq" | "index_range" | "key_set" | "index_order"
    #: | "join_keys" (a join's probe side: the keys its build side holds)
    access: str
    access_column: str | None = None
    eq_value: Any = None
    #: ``index_range``/``index_order``: the band of the access column
    #: the index reads.
    band: Band = Band()
    key_set: frozenset | None = None
    residual: tuple[Comparison, ...] = field(default_factory=tuple)
    estimated_rows: float = 0.0
    #: ``index_order`` only: walk direction, the row count it stops at,
    #: and the index entries the planner expects it to touch.
    descending: bool = False
    limit: int | None = None
    estimated_walk: float = 0.0

    def describe(self) -> str:
        estimate = f"~{self.estimated_rows:.0f} rows"
        if self.access == "seq":
            path = "SeqScan"
        elif self.access == "index_eq":
            path = f"IndexEqScan({self.access_column}={self.eq_value!r})"
        elif self.access == "index_range":
            path = f"IndexRangeScan({self.access_column} in {self.band})"
        elif self.access == "index_order":
            direction = "DESC" if self.descending else "ASC"
            if self.band != Band():
                direction += f" in {self.band}"
            path = (f"IndexOrderScan({self.access_column} {direction}, "
                    f"first {self.limit})")
            estimate += f", walk ~{self.estimated_walk:.0f}"
        elif self.access == "join_keys":
            path = f"JoinKeyScan({self.access_column} from build)"
        else:
            size = len(self.key_set or ())
            path = f"KeySetScan({self.access_column} in {size} keys)"
        residual = ""
        if self.residual:
            residual = " filter " + " AND ".join(map(str, self.residual))
        return f"{path} on {self.table}{residual} ({estimate})"


@dataclass(frozen=True)
class LogicalJoin(LogicalNode):
    """Equi-join of two subplans on a shared key column: the hash table
    is built on *right*, a dimension table, and *left*, the side holding
    ``bindings``, probes it."""

    left: LogicalNode
    right: LogicalNode
    key: str
    estimated_rows: float = 0.0

    def children(self) -> tuple[LogicalNode, ...]:
        return (self.left, self.right)

    @property
    def keyed(self) -> bool:
        """True when the probe side is a ``join_keys`` scan, reading
        only the keys the build side holds."""
        return getattr(self.left, "access", None) == "join_keys"

    def describe(self) -> str:
        return f"HashJoin(on {self.key}) (~{self.estimated_rows:.0f} rows)"


@dataclass(frozen=True)
class LogicalAggregate(LogicalNode):
    """Grouped or scalar aggregation."""

    child: LogicalNode
    aggregates: tuple[AggregateSpec, ...]
    group_by: str | None = None

    def children(self) -> tuple[LogicalNode, ...]:
        return (self.child,)

    def describe(self) -> str:
        aggs = ", ".join(map(str, self.aggregates))
        group = f" group by {self.group_by}" if self.group_by else ""
        return f"Aggregate({aggs}){group}"


@dataclass(frozen=True)
class LogicalHaving(LogicalNode):
    """Post-aggregation filter over the grouped output rows."""

    child: LogicalNode
    conditions: tuple[HavingCondition, ...]

    def children(self) -> tuple[LogicalNode, ...]:
        return (self.child,)

    def describe(self) -> str:
        return "Having(" + " AND ".join(map(str, self.conditions)) + ")"


@dataclass(frozen=True)
class LogicalProject(LogicalNode):
    child: LogicalNode
    columns: tuple[str, ...]

    def children(self) -> tuple[LogicalNode, ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"Project({', '.join(self.columns)})"


@dataclass(frozen=True)
class LogicalOrder(LogicalNode):
    """Sort, or a bounded top-k when a limit is present."""

    child: LogicalNode
    order_by: OrderBy
    limit: int | None = None

    def children(self) -> tuple[LogicalNode, ...]:
        return (self.child,)

    def describe(self) -> str:
        if self.limit is not None:
            return f"TopK({self.order_by}, k={self.limit})"
        return f"Sort({self.order_by})"


@dataclass(frozen=True)
class LogicalLimit(LogicalNode):
    child: LogicalNode
    limit: int

    def children(self) -> tuple[LogicalNode, ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"Limit({self.limit})"


@dataclass(frozen=True)
class LogicalCladeAggregate(LogicalNode):
    """Fast path: answer a clade aggregate from the materialized stats."""

    node_name: str
    aggregates: tuple[AggregateSpec, ...]

    def describe(self) -> str:
        aggs = ", ".join(map(str, self.aggregates))
        return f"MaterializedCladeAggregate({self.node_name!r}: {aggs})"


@dataclass(frozen=True)
class LogicalCladeTopK(LogicalNode):
    """Fast path: ``ORDER BY p_affinity DESC LIMIT k`` under lower
    bounds on it, from a node's best bindings (None: the root's)."""

    node_name: str | None
    bounds: tuple[Comparison, ...]
    limit: int
    columns: tuple[str, ...]

    def describe(self) -> str:
        where = repr(self.node_name) if self.node_name else "whole tree"
        bounds = " AND ".join(map(str, self.bounds))
        return (f"MaterializedCladeTopK({where}: p_affinity DESC, first "
                f"{self.limit}){' filter ' if bounds else ''}{bounds}")
