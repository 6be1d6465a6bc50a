"""Physical operators (volcano-style iterators over dict rows).

Every operator exposes ``rows()`` yielding ``dict`` rows and counts the
rows it examines into a shared :class:`ExecCounters`, which is how the
experiments report "rows touched" next to latency.

One operator, :class:`ScanOp`, reads a table whatever its access path.
:func:`resolve_access` is the one reading of a ``LogicalScan``'s
``seq``/``index_eq``/``index_range``/``key_set`` path, for this engine
and the batch engine's ``VecScanOp`` alike: which row ids are read, in
what order, and how many index probes that costs. ``ScanOp`` reads them
from the row store (``Table.scan_rows``/``Table.get``), never from the
column store, so the row engine stays an independent oracle for the
batch engine. The ordered index walk (``index_order``) has one operator
both engines share, ``vectorized.IndexOrderScanOp``.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import partial
from typing import Any

from repro.core.query.ast import AggregateSpec, Comparison, OrderBy
from repro.core.query.logical import LogicalScan
from repro.core.query.predicates import compile_residual
from repro.errors import PlanError, QueryError
from repro.sources.resilience import worst_status
from repro.storage.index import SortedIndex
from repro.storage.table import Table


@dataclass
class ExecCounters:
    """Row-level work accounting shared by all operators of one plan.

    ``rows_scanned``/``rows_emitted``/``index_probes`` mean the same
    thing under both execution modes (asserted by the parity suite), so
    E1/E7 "rows touched" numbers stay comparable. The batch fields are
    only touched by the vectorized operators; the snapshot omits them
    when zero so row-mode counters are byte-identical to before.
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


def resolve_access(table: Table, node: LogicalScan) -> tuple[
        tuple[Callable[[], list[int]], ...] | None,
        tuple[str, frozenset] | None]:
    """Resolve a scan's ``seq``/``index_eq``/``index_range``/``key_set``
    path against *table*: the one reading of the access path both
    lowerings share (``index_order`` keeps its own operator).

    Returns ``(probes, membership)``. ``probes`` is None when the scan
    reads every row in insertion order; otherwise it is the index reads
    to make, in order, each a function returning row ids and costing one
    ``index_probes`` (a key set probes one key at a time, keys sorted by
    ``repr``: deterministic across runs and engines). ``membership`` is
    ``(column, keys)`` for a key set with no index to probe: a full scan
    whose first test is membership.
    """
    access, column = node.access, node.access_column
    if access == "seq":
        return None, None
    if access == "key_set":
        index = table.index_on(column)
        if index is None:
            return None, (column, node.key_set)
        return tuple(partial(index.lookup, key)
                     for key in sorted(node.key_set, key=repr)), None
    if access == "index_eq":
        index = table.index_on(column)
        if index is None:
            raise PlanError(f"plan needs an index on {column!r}")
        return (partial(index.lookup, node.eq_value),), None
    if access == "index_range":
        index = table.index_on(column, require_range=True)
        if not isinstance(index, SortedIndex):
            raise PlanError(f"plan needs a sorted index on {column!r}")
        return (partial(index.range, *node.band),), None
    raise PlanError(f"unknown access path {access!r}")


class ScanOp(PhysicalOp):
    """Read one table through its plan's access path, from the row
    store (``Table.scan_rows``/``Table.get``): the reference the batch
    engine's column-store scan is held to."""

    def __init__(self, counters: ExecCounters, table: Table,
                 node: LogicalScan) -> None:
        super().__init__(counters)
        self.table = table
        self.probes, self.membership = resolve_access(table, node)
        self._passes = compile_residual(node.residual)

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
            source = map(self.table.get, self._row_ids())
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
    """Equi-join; builds a hash table on the (smaller) left input."""

    def __init__(self, counters: ExecCounters, build: PhysicalOp,
                 probe: PhysicalOp, key: str) -> None:
        super().__init__(counters)
        self.build = build
        self.probe = probe
        self.key = key

    def rows(self) -> Iterator[dict[str, Any]]:
        buckets: dict[Any, list[dict[str, Any]]] = {}
        for record in self.build.rows():
            buckets.setdefault(record.get(self.key), []).append(record)
        for record in self.probe.rows():
            for match in buckets.get(record.get(self.key), ()):
                merged = {**match, **record}
                self.counters.rows_emitted += 1
                yield merged


class NestedLoopJoinOp(PhysicalOp):
    """Equi-join by re-scanning the inner side per outer row (baseline)."""

    def __init__(self, counters: ExecCounters, outer: PhysicalOp,
                 inner_factory, key: str) -> None:
        super().__init__(counters)
        self.outer = outer
        self.inner_factory = inner_factory
        self.key = key

    def rows(self) -> Iterator[dict[str, Any]]:
        for outer_record in self.outer.rows():
            for inner_record in self.inner_factory().rows():
                if inner_record.get(self.key) == outer_record.get(self.key):
                    self.counters.rows_emitted += 1
                    yield {**inner_record, **outer_record}


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
        for position, record in enumerate(self.child.rows()):
            if position >= self.limit:
                break
            self.counters.rows_emitted += 1
            yield record


#: Child rows a :class:`RemoteFetchOp` buffers per fetch batch.
REMOTE_LOOKAHEAD = 64


class RemoteFetchOp(PhysicalOp):
    """Enrich rows with remote detail columns via the fetch scheduler.

    Buffers :data:`REMOTE_LOOKAHEAD` child rows at a time, collects
    their distinct keys, and issues *one* scatter/gather batch per
    buffer: every record kind the projected detail columns need is
    fetched in the same :meth:`FetchScheduler.fetch_all_resilient` call, so
    round-trips to different sources overlap and repeated keys
    collapse. Rows whose record is missing at the source get ``None``
    details.

    Whether a source fault aborts the query or comes back flagged is
    the scheduler's ``degrades(deadline)`` policy; the engine passes a
    *statuses* sink exactly when it degrades, and per-kind statuses are
    merged into it (worst across flushes). *deadline* bounds the
    virtual time the fetches may spend.
    """

    def __init__(self, counters: ExecCounters, child: PhysicalOp,
                 scheduler, key_column: str,
                 specs: tuple[tuple[str, str, str], ...],
                 deadline=None,
                 statuses: dict[str, str] | None = None) -> None:
        super().__init__(counters)
        self.child = child
        self.scheduler = scheduler
        self.key_column = key_column
        #: (output column, record kind, record attribute) triples.
        self.specs = specs
        self.deadline = deadline
        self.statuses = statuses

    def rows(self) -> Iterator[dict[str, Any]]:
        buffer: list[dict[str, Any]] = []
        for record in self.child.rows():
            buffer.append(record)
            if len(buffer) >= REMOTE_LOOKAHEAD:
                yield from self._flush(buffer)
                buffer = []
        if buffer:
            yield from self._flush(buffer)

    def _flush(self, buffer: list[dict[str, Any]],
               ) -> Iterator[dict[str, Any]]:
        keys = sorted({
            record[self.key_column] for record in buffer
            if record.get(self.key_column) is not None
        })
        kinds = sorted({kind for _, kind, _ in self.specs})
        requests = [(kind, keys) for kind in kinds]
        fetched = self._fetch(requests)
        for record in buffer:
            key = record.get(self.key_column)
            for column, kind, attribute in self.specs:
                remote = fetched.get(kind, {}).get(key)
                record[column] = (getattr(remote, attribute, None)
                                  if remote is not None else None)
            self.counters.rows_emitted += 1
            yield record

    def _fetch(self, requests) -> dict[str, dict[str, Any]]:
        outcome = self.scheduler.fetch_all_resilient(
            requests, deadline=self.deadline)
        if self.statuses is not None:
            # Missing kinds came back flagged, not raised; the engine
            # decides what a partial answer means.
            for kind, status in outcome.statuses.items():
                self.statuses[kind] = worst_status(
                    self.statuses.get(kind, status), status)
        return outcome.records


class StaticRowsOp(PhysicalOp):
    """Emit precomputed rows (materialized-aggregate fast path)."""

    def __init__(self, counters: ExecCounters,
                 records: list[dict[str, Any]]) -> None:
        super().__init__(counters)
        self.records = records

    def rows(self) -> Iterator[dict[str, Any]]:
        for record in self.records:
            self.counters.rows_emitted += 1
            yield record
