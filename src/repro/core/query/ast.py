"""Query model (AST) for DrugTree queries.

Queries are conjunctive select/join/aggregate queries over the three
overlay tables, extended with the two domain predicates DrugTree adds:

* ``SubtreeFilter`` — restrict to proteins under a named tree node;
* ``SimilarityFilter`` — restrict to ligands Tanimoto-similar to a probe
  structure.

The DTQL text language (:mod:`repro.core.query.parser`) is sugar over
these dataclasses; programmatic callers can build them directly.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, NamedTuple

from repro.core.overlay import (
    BINDINGS_TABLE,
    LIGANDS_TABLE,
    PROTEINS_TABLE,
    bindings_schema,
    ligands_schema,
    proteins_schema,
)
from repro.errors import QueryError
from repro.storage.schema import ColumnType

#: Comparison operators supported in predicates.
COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=", "in")
#: The ones that bound one end of a range.
RANGE_OPS = ("<", "<=", ">", ">=")

#: Aggregate functions.
AGGREGATE_FUNCS = ("count", "sum", "mean", "min", "max")

#: Which overlay table owns each column. Shared key columns live in the
#: bindings fact table; the planner rewrites table-qualified references.
_SCHEMAS = {
    PROTEINS_TABLE: proteins_schema(),
    LIGANDS_TABLE: ligands_schema(),
    BINDINGS_TABLE: bindings_schema(),
}

COLUMN_OWNERS: dict[str, tuple[str, ...]] = {}
#: Each overlay column's type (a shared key column has the same type in
#: every table that carries it).
COLUMN_TYPES: dict[str, ColumnType] = {}
for _table, _schema in _SCHEMAS.items():
    for _column in _schema:
        COLUMN_OWNERS[_column.name] = \
            COLUMN_OWNERS.get(_column.name, ()) + (_table,)
        COLUMN_TYPES[_column.name] = _column.type

#: The column types ``sum`` and ``mean`` accept.
NUMERIC_TYPES = (ColumnType.INT, ColumnType.FLOAT)

#: Detail columns that are *not* materialized in the overlay: selecting
#: one makes the executor fetch the backing record from the federation
#: at run time (through the engine's fetch scheduler). Maps the column
#: to ``(record kind, record attribute, owner table)``; all current
#: remote details are keyed by ``protein_id``.
REMOTE_DETAIL_COLUMNS: dict[str, tuple[str, str, str]] = {
    "method": ("protein", "method", PROTEINS_TABLE),
    "go_terms": ("annotation", "go_terms", PROTEINS_TABLE),
    "keywords": ("annotation", "keywords", PROTEINS_TABLE),
}


def unknown_column(column: str, use: str,
                   label: str = "column") -> QueryError:
    """The error for *use* (``"a predicate on"``, ...) of *column*,
    which no overlay table holds: ``DTQL005`` when it is a remote
    detail (a projected output only, fetched per selected row after the
    query runs), else ``DTQL002`` "unknown *label*". Either names the
    column, for the diagnostic's span, and marks it stored-only."""
    if column in REMOTE_DETAIL_COLUMNS:
        return QueryError(
            f"{use} {column!r} is unsupported: the column is "
            "federation-resolved, fetched per selected row after the "
            "query runs", code="DTQL005", name=column)
    return QueryError(f"unknown {label} {column!r}", code="DTQL002",
                      name=column, stored_only=True)


@dataclass(frozen=True)
class Comparison:
    """``column <op> value`` over one overlay column."""

    column: str
    op: str
    value: Any

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise QueryError(
                f"unknown operator {self.op!r} (known: {COMPARISON_OPS})"
            )
        if self.column not in COLUMN_OWNERS:
            raise unknown_column(self.column, "a predicate on")
        if self.op == "in" and not isinstance(self.value, (tuple, list,
                                                           set, frozenset)):
            raise QueryError("'in' needs a collection of values")

    def matches(self, value: Any) -> bool:
        """Evaluate against one concrete value (NULL never matches)."""
        if value is None:
            return False
        if self.op == "=":
            return value == self.value
        if self.op == "!=":
            return value != self.value
        if self.op == "<":
            return value < self.value
        if self.op == "<=":
            return value <= self.value
        if self.op == ">":
            return value > self.value
        if self.op == ">=":
            return value >= self.value
        return value in self.value  # "in"

    def implies(self, other: "Comparison") -> bool:
        """True if satisfying self guarantees satisfying *other*
        (conservative: False when it cannot be proven). A range or
        ``=`` is exactly its :class:`Band`: containment decides it."""
        if self.column != other.column:
            return False
        if self == other:
            return True
        try:
            if other.op == "in":
                if self.op == "=":
                    return self.value in other.value
                return self.op == "in" and \
                    set(self.value) <= set(other.value)
            if other.op == "!=":
                return self.op == "=" and other.matches(self.value)
            return Band.of((other,)).contains(Band.of((self,)))
        except TypeError:
            return False

    def __str__(self) -> str:
        if self.op == "in":
            # A set prints sorted, not in its hash-seeded order.
            members = [repr(v) for v in self.value]
            if isinstance(self.value, (set, frozenset)):
                members.sort()
            return f"{self.column} IN ({', '.join(members)})"
        return f"{self.column} {self.op} {self.value!r}"


#: Per bounding operator, whether its bound is inclusive.
_LOWER_BOUNDS = {">": False, ">=": True, "=": True}
_UPPER_BOUNDS = {"<": False, "<=": True, "=": True}


def range_bounds(predicates: Iterable[Comparison]) -> dict[str, list]:
    """The range comparisons among *predicates*, by column."""
    by_column: dict[str, list[Comparison]] = {}
    for predicate in predicates:
        if predicate.op in RANGE_OPS:
            by_column.setdefault(predicate.column, []).append(predicate)
    return by_column


class Band(NamedTuple):
    """The values one column may take under AND-ed comparisons: the
    interval ``SortedIndex.range``/``count``/``ordered`` take (``None``
    is an open end), so a band splats straight into them. The planner,
    the estimator, the analyzer's proofs and the cluster's pruning all
    read bounds through it."""

    low: Any = None
    high: Any = None
    include_low: bool = True
    include_high: bool = True

    @classmethod
    def of(cls, comparisons: Iterable[Comparison]) -> "Band":
        """The tightest band holding every value *comparisons* allow.

        Ranges bound one end and ``=`` both; ``IN`` bounds by its least
        and greatest member; ``!=`` (and an empty ``IN``) bounds
        nothing. Of two bounds at one value the strict one wins,
        whichever comes first. Raises ``TypeError`` when two literals
        cannot be compared.
        """
        low = high = None
        include_low = include_high = True
        for comparison in comparisons:
            op, bottom = comparison.op, comparison.value
            top = bottom
            if op == "in":
                if not bottom:
                    continue
                op, bottom, top = "=", min(bottom), max(bottom)
            # Tuples order bounds by value, then strictness.
            if op in _LOWER_BOUNDS and (low is None or (
                    bottom, not _LOWER_BOUNDS[op]) > (low, not include_low)):
                low, include_low = bottom, _LOWER_BOUNDS[op]
            if op in _UPPER_BOUNDS and (high is None or (
                    top, _UPPER_BOUNDS[op]) < (high, include_high)):
                high, include_high = top, _UPPER_BOUNDS[op]
        return cls(low, high, include_low, include_high)

    @property
    def empty(self) -> bool:
        """True if no value lies in the band (``TypeError`` when its
        ends cannot be compared)."""
        return (self.low is not None and self.high is not None
                and (self.low > self.high or self.low == self.high
                     and not (self.include_low and self.include_high)))

    def contains(self, other: "Band") -> bool:
        """True if every value *other* holds, this band holds too."""
        return ((self.low is None or other.low is not None and (
                    other.low, not other.include_low)
                 >= (self.low, not self.include_low))
                and (self.high is None or other.high is not None and (
                    other.high, other.include_high)
                     <= (self.high, self.include_high)))

    def integers(self, start: int, stop: int) -> tuple[int, int]:
        """The integers of this band in ``[start, stop)`` as a half-open
        ``(low, high)``: ends clamped to the range (so no infinity), then
        rounded inward by floor and ceil (``< 11.5`` keeps 11)."""
        low, high = start, stop
        if self.low is not None:
            edge = min(max(self.low, start - 1), stop)
            low = max(start, math.ceil(edge) if self.include_low
                      else math.floor(edge) + 1)
        if self.high is not None:
            edge = min(max(self.high, start - 1), stop)
            high = min(stop, math.floor(edge) + 1 if self.include_high
                       else math.ceil(edge))
        low = min(low, stop)
        return low, max(low, high)

    def __str__(self) -> str:
        low = "" if self.low is None else repr(self.low)
        high = "" if self.high is None else repr(self.high)
        return (f"{'[' if self.include_low else '('}{low}, "
                f"{high}{']' if self.include_high else ')'}")


@dataclass(frozen=True)
class SubtreeFilter:
    """Restrict results to proteins under the named tree node."""

    node_name: str

    def __post_init__(self) -> None:
        if not self.node_name:
            raise QueryError("subtree filter needs a node name")

    def bounds(self, labeling) -> tuple[Comparison, Comparison]:
        """The ``leaf_pre`` range the clade's leaves occupy under
        *labeling* (an ``IntervalLabeling``)."""
        low, high = labeling.leaf_range(self.node_name)
        return (Comparison("leaf_pre", ">=", low),
                Comparison("leaf_pre", "<", high))

    def __str__(self) -> str:
        return f"IN SUBTREE {self.node_name!r}"


@dataclass(frozen=True)
class SimilarityFilter:
    """Restrict results to ligands similar to a probe structure."""

    smiles: str
    threshold: float

    def __post_init__(self) -> None:
        if not self.smiles:
            raise QueryError("similarity filter needs a SMILES probe")
        if not 0.0 < self.threshold <= 1.0:
            raise QueryError("similarity threshold must be in (0, 1]",
                             code="DTQL004")

    def __str__(self) -> str:
        return f"SIMILAR TO {self.smiles!r} >= {self.threshold}"


@dataclass(frozen=True)
class SubstructureFilter:
    """Restrict results to ligands containing a fragment structure."""

    smiles: str

    def __post_init__(self) -> None:
        if not self.smiles:
            raise QueryError("substructure filter needs a SMILES fragment")

    def __str__(self) -> str:
        return f"CONTAINING {self.smiles!r}"


@dataclass(frozen=True)
class AggregateSpec:
    """``func(column)`` in the select list."""

    func: str
    column: str

    def __post_init__(self) -> None:
        if self.func not in AGGREGATE_FUNCS:
            raise QueryError(
                f"unknown aggregate {self.func!r} (known: {AGGREGATE_FUNCS})",
                code="DTQL004",
            )
        if self.column != "*" and self.column not in COLUMN_OWNERS:
            raise unknown_column(self.column, "an aggregate of")
        if self.column == "*" and self.func != "count":
            raise QueryError("only count(*) may aggregate '*'",
                             code="DTQL004")
        if self.func in ("sum", "mean") and self.column != "*" \
                and COLUMN_TYPES[self.column] not in NUMERIC_TYPES:
            raise QueryError(
                f"{self.func}() needs a numeric column; {self.column!r} "
                f"is {COLUMN_TYPES[self.column].value}", code="DTQL004",
                name=self.column)

    @property
    def output_name(self) -> str:
        return f"{self.func}_{self.column}".replace("*", "all")

    def __str__(self) -> str:
        return f"{self.func}({self.column})"


@dataclass(frozen=True)
class HavingCondition:
    """``output <op> value`` over an aggregate output or the group key.

    Shares the comparison semantics of :class:`Comparison` but targets
    result-row columns (``count_all``, ``mean_p_affinity``, ...), so it
    skips the overlay-column validation.
    """

    column: str
    op: str
    value: Any

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise QueryError(
                f"unknown operator {self.op!r} (known: {COMPARISON_OPS})"
            )
        if not self.column:
            raise QueryError("HAVING needs a column")
        if self.op == "in" and not isinstance(self.value, (tuple, list,
                                                           set, frozenset)):
            raise QueryError("'in' needs a collection of values")

    # The same NULL/op semantics and text as a Comparison.
    matches = Comparison.matches
    __str__ = Comparison.__str__


@dataclass(frozen=True)
class OrderBy:
    column: str
    descending: bool = False

    def __str__(self) -> str:
        return f"{self.column} {'DESC' if self.descending else 'ASC'}"


@dataclass(frozen=True)
class Query:
    """One DrugTree query.

    Either ``select`` (projection) or ``aggregates`` must be set; when
    both are empty the query selects every column of the joined tables.
    """

    select: tuple[str, ...] = ()
    aggregates: tuple[AggregateSpec, ...] = ()
    predicates: tuple[Comparison, ...] = ()
    subtree: SubtreeFilter | None = None
    similar: SimilarityFilter | None = None
    substructure: SubstructureFilter | None = None
    group_by: str | None = None
    having: tuple[HavingCondition, ...] = ()
    order_by: OrderBy | None = None
    limit: int | None = None
    #: Tables named explicitly in FROM; inference adds whatever else the
    #: referenced columns require.
    from_tables: tuple[str, ...] = ()
    #: The parser's tokens when the query came from DTQL text (empty
    #: for one built in code): where diagnostics get their spans from.
    #: Not part of the query's identity.
    tokens: tuple = field(default=(), compare=False, repr=False)

    def __post_init__(self) -> None:
        known = (BINDINGS_TABLE, PROTEINS_TABLE, LIGANDS_TABLE)
        for table in self.from_tables:
            if table not in known:
                raise QueryError(f"unknown table {table!r}",
                                 code="DTQL003", name=table)
        if self.aggregates and self.select:
            extra = set(self.select) - ({self.group_by} if self.group_by
                                        else set())
            if extra:
                raise QueryError(
                    "plain columns alongside aggregates must be the "
                    f"group-by column; got {sorted(extra)}",
                    code="DTQL004",
                )
        if self.group_by is not None and not self.aggregates:
            raise QueryError("group_by requires aggregates", code="DTQL004")
        if self.group_by is not None and self.group_by not in COLUMN_OWNERS:
            raise unknown_column(self.group_by, "GROUP BY",
                                 "group-by column")
        if self.having and not self.aggregates:
            raise QueryError("HAVING requires aggregates", code="DTQL004")
        if self.having:
            visible = {agg.output_name for agg in self.aggregates}
            if self.group_by:
                visible.add(self.group_by)
            for condition in self.having:
                if condition.column not in visible:
                    raise QueryError(
                        f"HAVING references {condition.column!r}, not an "
                        f"output of this query (outputs: "
                        f"{sorted(visible)})",
                        code="DTQL004",
                    )
        if self.limit is not None and self.limit < 1:
            raise QueryError("limit must be positive", code="DTQL004")
        for column in self.select:
            if (column not in COLUMN_OWNERS
                    and column not in REMOTE_DETAIL_COLUMNS):
                raise QueryError(f"unknown column {column!r}",
                                 code="DTQL002", name=column)
        if self.order_by is not None:
            valid = set(self.select) | {
                agg.output_name for agg in self.aggregates
            } | set(COLUMN_OWNERS)
            if self.order_by.column not in valid:
                raise QueryError(
                    f"unknown order-by column {self.order_by.column!r}",
                    code="DTQL002", name=self.order_by.column,
                )

    # -- table resolution --------------------------------------------------

    def referenced_columns(self, predicates: bool = True) -> set[str]:
        columns = set(self.select)
        if predicates:
            columns.update(p.column for p in self.predicates)
        if self.group_by:
            columns.add(self.group_by)
        for aggregate in self.aggregates:
            if aggregate.column != "*":
                columns.add(aggregate.column)
        if (self.order_by is not None
                and self.order_by.column in COLUMN_OWNERS):
            columns.add(self.order_by.column)
        return columns

    def tables(self) -> tuple[str, ...]:
        """Overlay tables this query touches, in canonical join order,
        derived once per query: a frozen query's tables never change.

        Shared key columns (``ligand_id``/``protein_id``) do not force a
        table by themselves; non-key columns do. The subtree filter
        touches ``leaf_pre`` (bindings or proteins); the similarity
        filter touches ``ligands``.
        """
        return self._tables

    @cached_property
    def _tables(self) -> tuple[str, ...]:
        return self._tables_for(self.referenced_columns())

    def base_tables(self) -> tuple[str, ...]:
        """The tables :meth:`tables` names before the predicates pull
        any in: a table only :meth:`tables` names is an implicit join."""
        return self._tables_for(self.referenced_columns(predicates=False))

    def _tables_for(self, referenced: set[str]) -> tuple[str, ...]:
        needed: set[str] = set(self.from_tables)
        for column in referenced:
            owners = COLUMN_OWNERS.get(column)
            if owners is None:
                # Remote detail columns anchor to their owner table so
                # the join produces the key the runtime fetch needs.
                needed.add(REMOTE_DETAIL_COLUMNS[column][2])
                continue
            if len(owners) == 1:
                needed.add(owners[0])
        if self.similar is not None or self.substructure is not None:
            needed.add(LIGANDS_TABLE)
        if (self.subtree is not None
                and not needed & {PROTEINS_TABLE, BINDINGS_TABLE}):
            needed.add(BINDINGS_TABLE)
        if not needed:
            needed.add(BINDINGS_TABLE)
        # A referenced shared-key column must still be readable: if none
        # of its owners made it into the set, pull one in.
        for column in referenced:
            owners = COLUMN_OWNERS.get(column)
            if owners is None:
                continue  # remote detail: owner table already added
            if not set(owners) & needed:
                needed.add(BINDINGS_TABLE if BINDINGS_TABLE in owners
                           else owners[0])
        # A join between proteins and ligands must route through the
        # bindings fact table.
        if PROTEINS_TABLE in needed and LIGANDS_TABLE in needed:
            needed.add(BINDINGS_TABLE)
        order = (BINDINGS_TABLE, PROTEINS_TABLE, LIGANDS_TABLE)
        return tuple(t for t in order if t in needed)

    def remote_columns(self) -> tuple[str, ...]:
        """Selected columns that require a run-time federation fetch."""
        return tuple(c for c in self.select
                     if c in REMOTE_DETAIL_COLUMNS)

    def signature(self) -> str:
        """Canonical text form (the semantic-cache key), rendered once
        per query: a frozen query's text never changes."""
        return self._signature

    @cached_property
    def _signature(self) -> str:
        parts = [
            "SELECT",
            ", ".join(
                [*map(str, self.aggregates), *self.select]
            ) or "*",
            "FROM", ", ".join(self.tables()),
        ]
        if self.predicates:
            preds = sorted(str(p) for p in self.predicates)
            parts.extend(["WHERE", " AND ".join(preds)])
        if self.subtree:
            parts.append(str(self.subtree))
        if self.similar:
            parts.append(str(self.similar))
        if self.substructure:
            parts.append(str(self.substructure))
        if self.group_by:
            parts.extend(["GROUP BY", self.group_by])
        if self.having:
            conditions = sorted(str(c) for c in self.having)
            parts.extend(["HAVING", " AND ".join(conditions)])
        if self.order_by:
            parts.extend(["ORDER BY", str(self.order_by)])
        if self.limit is not None:
            parts.extend(["LIMIT", str(self.limit)])
        return " ".join(parts)

    def __str__(self) -> str:
        return self.signature()
