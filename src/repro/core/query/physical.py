"""Physical operators (volcano-style iterators over dict rows).

Every operator exposes ``rows()`` yielding ``dict`` rows and counts the
rows it examines into a shared :class:`ExecCounters`, which is how the
experiments report "rows touched" next to latency. This is the row
engine: the reference ``execution_mode="row"`` runs and the parity
suites hold the batch engine to. No plan needs it, since every logical
node has a batch form; it lowers the nodes that are only lookups or
fetches (the ordered index walk, the materialized clade aggregate, the
remote fetch) with the batch engine's operators and drains their
``rows()``.

One operator, :class:`ScanOp`, reads a table whatever its access path.
:func:`resolve_access` is the one reading of every ``LogicalScan``
path but the ordered walk, for this engine and the batch engine's
``VecScanOp`` alike: which row ids are read, in what order, and how
many index probes that costs. ``ScanOp`` reads them
from the row store (``Table.scan_rows``/``Table.get``), never from the
column store, so the row engine stays an independent oracle for the
batch engine.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from bisect import bisect_left
from collections.abc import Callable, Collection, Iterator
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from typing import Any

from repro.core.query.ast import AggregateSpec, Comparison, OrderBy
from repro.core.query.logical import LogicalScan
from repro.core.query.predicates import compile_residual
from repro.errors import PlanError, QueryError
from repro.storage.index import SortedIndex
from repro.storage.table import Table


@dataclass
class ExecCounters:
    """Row-level work accounting shared by all operators of one plan.

    ``rows_scanned``/``rows_emitted``/``index_probes`` mean the same
    thing under both execution modes (asserted by the parity suite), so
    E1/E7 "rows touched" numbers stay comparable. The batch fields are
    only touched by batches the vectorized operators emit (in row
    mode, only those of a remote fetch); the snapshot omits them when
    zero.
    """

    rows_scanned: int = 0
    rows_emitted: int = 0
    index_probes: int = 0
    operators: list[str] = field(default_factory=list)
    #: Batches yielded by vectorized operators (0 in row mode).
    batches_emitted: int = 0
    #: Total rows across those batches (drives the mean batch size).
    batch_rows: int = 0

    def snapshot(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "rows_scanned": self.rows_scanned,
            "rows_emitted": self.rows_emitted,
            "index_probes": self.index_probes,
            "operators": list(self.operators),
        }
        if self.batches_emitted:
            data["batches_emitted"] = self.batches_emitted
            data["rows_per_batch"] = round(
                self.batch_rows / self.batches_emitted, 2
            )
        return data


class PhysicalOp(ABC):
    """One executable plan operator."""

    def __init__(self, counters: ExecCounters) -> None:
        self.counters = counters
        counters.operators.append(type(self).__name__)

    @abstractmethod
    def rows(self) -> Iterator[dict[str, Any]]: ...


def resolve_access(table: Table, node: LogicalScan,
                   keys: Collection = ()) -> tuple[
        tuple[Callable[[], list[int]], ...] | None,
        tuple[str, frozenset] | None]:
    """Resolve a scan's ``seq``/``index_eq``/``index_range``/``key_set``/
    ``join_keys`` path against *table*: the one reading of the access
    path both lowerings share (``index_order`` keeps its own operator).

    Returns ``(probes, membership)``. ``probes`` is None when the scan
    reads every row in insertion order; otherwise it is the index reads
    to make, each a function returning row ids (ascending) and costing
    one ``index_probes``: one per key of an ``index_eq``, ``key_set`` or
    ``join_keys`` lookup, ``None`` included. Its reader merges their
    row ids ascending, so every access path reads rows in row-id order,
    the order a full scan reads them. ``membership`` is ``(column,
    keys)`` for a key set with no index to probe: a full scan whose
    first test is membership.

    A ``join_keys`` scan probes *keys*, the distinct keys its join's
    build side holds (none until the join hands them over: no lookup).
    Every key lookup drops the ids at or above one batch boundary read
    first, so a batch appended meanwhile is seen whole or not at all.
    """
    access, column = node.access, node.access_column
    if access == "seq":
        return None, None
    if access == "index_range":
        index = table.index_on(column, require_range=True)
        if not isinstance(index, SortedIndex):
            raise PlanError(f"plan needs a sorted index on {column!r}")
        return (partial(index.range, *node.band),), None
    if access not in ("index_eq", "key_set", "join_keys"):
        raise PlanError(f"unknown access path {access!r}")
    index = table.index_on(column)
    if index is None:
        if access == "key_set":
            return None, (column, node.key_set)
        raise PlanError(f"plan needs an index on {column!r}")
    if access != "join_keys":
        keys = (node.eq_value,) if access == "index_eq" else node.key_set
    bound = table.batch_boundary() if keys else 0
    return tuple(partial(_ids_below, index, key, bound)
                 for key in keys), None


def _ids_below(index, key: Any, bound: int) -> list[int]:
    """The row ids *index* holds for *key* (ascending) below *bound*."""
    row_ids = index.lookup(key)
    del row_ids[bisect_left(row_ids, bound):]
    return row_ids


class ScanOp(PhysicalOp):
    """Read one table through its plan's access path, from the row
    store (``Table.scan_rows``/``Table.get``): the reference the batch
    engine's column-store scan is held to."""

    def __init__(self, counters: ExecCounters, table: Table,
                 node: LogicalScan) -> None:
        super().__init__(counters)
        self.table = table
        self.node = node
        self.probes, self.membership = resolve_access(table, node)
        self._passes = compile_residual(node.residual)

    def set_join_keys(self, keys: Collection) -> None:
        """Probe *keys*, a ``join_keys`` scan's build keys (the join
        hands them over once its hash table is built)."""
        self.probes, _ = resolve_access(self.table, self.node, keys)

    def _row_ids(self) -> Iterator[int]:
        for probe in self.probes:
            self.counters.index_probes += 1
            yield from probe()

    def rows(self) -> Iterator[dict[str, Any]]:
        counters = self.counters
        as_dict = self.table.schema.row_as_dict
        passes = self._passes
        if self.probes is None:
            source = self.table.scan_rows()
        else:
            source = map(self.table.get, sorted(self._row_ids()))
        position = keys = None
        if self.membership is not None:
            column, keys = self.membership
            position = self.table.schema.index_of(column)
        for row in source:
            counters.rows_scanned += 1
            if keys is not None and row[position] not in keys:
                continue
            record = as_dict(row)
            if passes(record):
                counters.rows_emitted += 1
                yield record


class HashJoinOp(PhysicalOp):
    """Equi-join: builds a hash table on *build*, then probes it with
    each row of *probe*; when *keyed*, *probe* is a ``join_keys`` scan
    and reads only the keys the table holds."""

    def __init__(self, counters: ExecCounters, build: PhysicalOp,
                 probe: PhysicalOp, key: str, keyed: bool = False) -> None:
        super().__init__(counters)
        self.build = build
        self.probe = probe
        self.key = key
        self.keyed = keyed

    def rows(self) -> Iterator[dict[str, Any]]:
        buckets: dict[Any, list[dict[str, Any]]] = {}
        for record in self.build.rows():
            buckets.setdefault(record.get(self.key), []).append(record)
        if self.keyed:
            self.probe.set_join_keys(buckets)
        for record in self.probe.rows():
            for match in buckets.get(record.get(self.key), ()):
                merged = {**match, **record}
                self.counters.rows_emitted += 1
                yield merged


class FilterOp(PhysicalOp):
    def __init__(self, counters: ExecCounters, child: PhysicalOp,
                 predicates: tuple[Comparison, ...]) -> None:
        super().__init__(counters)
        self.child = child
        self.predicates = predicates
        self._passes = compile_residual(predicates)

    def rows(self) -> Iterator[dict[str, Any]]:
        passes = self._passes
        for record in self.child.rows():
            if passes(record):
                self.counters.rows_emitted += 1
                yield record


class ProjectOp(PhysicalOp):
    def __init__(self, counters: ExecCounters, child: PhysicalOp,
                 columns: tuple[str, ...]) -> None:
        super().__init__(counters)
        self.child = child
        self.columns = columns

    def rows(self) -> Iterator[dict[str, Any]]:
        for record in self.child.rows():
            try:
                yield {column: record[column] for column in self.columns}
            except KeyError as exc:
                raise QueryError(
                    f"projection references missing column {exc}"
                ) from None


@dataclass
class _AggState:
    count: int = 0
    total: float = 0.0
    minimum: Any = None
    maximum: Any = None

    def fold(self, value: Any) -> None:
        # SQL semantics: NULLs do not contribute to column aggregates.
        if value is None:
            return
        self.count += 1
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def fold_many(self, values: list[Any]) -> None:
        """Fold a whole column slice in one call (vectorized path).

        Accumulates in the same left-to-right order as repeated
        :meth:`fold` calls so float sums round identically — the parity
        suite asserts bit-identical aggregates across engines.
        """
        total = self.total
        count = self.count
        minimum = self.minimum
        maximum = self.maximum
        for value in values:
            if value is None:
                continue
            count += 1
            if isinstance(value, (int, float)) \
                    and not isinstance(value, bool):
                total += value
            if minimum is None or value < minimum:
                minimum = value
            if maximum is None or value > maximum:
                maximum = value
        self.total = total
        self.count = count
        self.minimum = minimum
        self.maximum = maximum

    def result(self, func: str) -> Any:
        if func == "count":
            return self.count
        if self.count == 0:
            return None
        if func == "sum":
            return self.total
        if func == "mean":
            return self.total / self.count
        if func == "min":
            return self.minimum
        return self.maximum


class HashAggregateOp(PhysicalOp):
    """Grouped (or scalar, when group_by is None) aggregation."""

    def __init__(self, counters: ExecCounters, child: PhysicalOp,
                 aggregates: tuple[AggregateSpec, ...],
                 group_by: str | None = None) -> None:
        super().__init__(counters)
        self.child = child
        self.aggregates = aggregates
        self.group_by = group_by

    def rows(self) -> Iterator[dict[str, Any]]:
        groups: dict[Any, dict[str, _AggState]] = {}
        saw_rows = False
        for record in self.child.rows():
            saw_rows = True
            key = record.get(self.group_by) if self.group_by else None
            states = groups.setdefault(key, {
                agg.output_name: _AggState() for agg in self.aggregates
            })
            for agg in self.aggregates:
                value = 1 if agg.column == "*" else record.get(agg.column)
                if agg.column == "*":
                    states[agg.output_name].count += 1
                else:
                    states[agg.output_name].fold(value)
        if not saw_rows and self.group_by is None:
            # Scalar aggregate over an empty input still yields one row.
            groups[None] = {
                agg.output_name: _AggState() for agg in self.aggregates
            }
        for key in sorted(groups, key=repr):
            states = groups[key]
            out: dict[str, Any] = {}
            if self.group_by is not None:
                out[self.group_by] = key
            for agg in self.aggregates:
                out[agg.output_name] = states[agg.output_name].result(
                    agg.func
                )
            self.counters.rows_emitted += 1
            yield out


class SortOp(PhysicalOp):
    def __init__(self, counters: ExecCounters, child: PhysicalOp,
                 order_by: OrderBy) -> None:
        super().__init__(counters)
        self.child = child
        self.order_by = order_by

    def rows(self) -> Iterator[dict[str, Any]]:
        records = list(self.child.rows())
        records.sort(
            key=lambda record: _sort_key(record.get(self.order_by.column)),
            reverse=self.order_by.descending,
        )
        yield from records


class TopKOp(PhysicalOp):
    """Bounded heap: O(n log k) instead of a full sort."""

    def __init__(self, counters: ExecCounters, child: PhysicalOp,
                 order_by: OrderBy, limit: int) -> None:
        super().__init__(counters)
        self.child = child
        self.order_by = order_by
        self.limit = limit

    def rows(self) -> Iterator[dict[str, Any]]:
        column = self.order_by.column

        def key(record: dict[str, Any]) -> Any:
            return _sort_key(record.get(column))

        pick = heapq.nlargest if self.order_by.descending else heapq.nsmallest
        for record in pick(self.limit, self.child.rows(), key=key):
            self.counters.rows_emitted += 1
            yield record


def _sort_key(value: Any) -> Any:
    """NULLs sort first ascending / last descending, like SQL NULLS FIRST."""
    return (value is not None, value)


class LimitOp(PhysicalOp):
    def __init__(self, counters: ExecCounters, child: PhysicalOp,
                 limit: int) -> None:
        super().__init__(counters)
        self.child = child
        self.limit = limit

    def rows(self) -> Iterator[dict[str, Any]]:
        # islice pulls no row past the limit.
        for record in islice(self.child.rows(), self.limit):
            self.counters.rows_emitted += 1
            yield record
