"""Vectorized (batch-at-a-time) execution over columnar projections.

The row engine (:mod:`repro.core.query.physical`) interprets plans one
dict row at a time: every row pays a ``dict`` materialization, a
generator resumption per operator, and (before PR 5) per-row predicate
dispatch. This module executes the *same* logical plans batch-at-a-time
over the tables' :class:`~repro.storage.columnar.ColumnStore`
projections, amortizing interpreter overhead across
:data:`BATCH_SIZE` rows:

* one :class:`VecScanOp` reads a table through any access path but
  the ordered index walk: it maps the row ids
  :func:`~repro.core.query.physical.resolve_access` names (the row
  engine's, in the same order, at the same probe cost) to buffer
  positions, or takes every live position for a full scan. An index
  range holding :data:`RANGE_MASK_SHARE` of the table or more, on a
  mirrored column with literals of its kind, is instead one mask over
  the mirror: the same positions, ascending, with the same counters;
* scans build **selection vectors** (buffer positions) and narrow
  them one predicate at a time: a comparison of a mirrored numeric or
  bool column with a literal of its kind is one numpy mask over the
  column's typed mirror; every other predicate (strings, ``IN``, the
  key-set membership test) runs its compiled closure on the list
  buffer. Values are gathered from the lists, so a batch holds the row
  store's own objects, and the plan's output leaves as value tuples
  (``Batch.tuples``): no row dict exists unless a caller asks for one;
* filters, projections, joins, sorts, and limits operate on
  :class:`Batch` objects (column name → value list);
* an aggregate over a scan folds the column store at the positions
  the scan selected (the scan gathers nothing): a column's typed
  mirror where it has one — ``np.add.accumulate`` seeded with the
  running total (a sequential sum, bit-identical to the row engine's
  ``total += v``; ``np.sum`` is pairwise and is not), first-occurrence
  ``argmin``/``argmax`` answered with the list's object — its list via
  ``_AggState.fold_many`` where it has none, and a STRING group key's
  coded mirror, in the same left-to-right order. An aggregate over
  anything else folds the lists of each batch;
* a clade aggregate the materialized stats answer is one lookup
  (:class:`CladeAggregateOp`, one one-row batch), and remote detail
  columns are fetched by :class:`RemoteFetchOp` in groups of
  :data:`REMOTE_LOOKAHEAD` rows that span batch boundaries. Both
  operators, and the ordered index walk, serve the row engine too, so
  every logical node has a batch form and every plan runs here unless
  ``execution_mode="row"`` asks for the reference.

Result parity is a hard contract: same rows, same order, same
``rows_scanned``/``rows_emitted``/``index_probes``. The one documented
exception is early termination (a bare ``LIMIT`` without ``ORDER BY``):
scans work at chunk granularity (the limit, then doubling up to a
batch), so an abandoned scan may have counted up to one chunk more
than the row engine's row-granular stop.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator, Sequence
from itertools import compress, count, repeat
from operator import itemgetter
from typing import Any

import numpy as np

from repro.core.overlay import BINDINGS_TABLE
from repro.core.query.ast import REMOTE_DETAIL_COLUMNS, AggregateSpec, OrderBy
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
from repro.core.query.physical import (
    ExecCounters,
    _AggState,
    _sort_key,
    resolve_access,
)
from repro.core.query.predicates import compile_columns, compile_comparison
from repro.errors import PlanError, QueryError
from repro.obs.explain import OperatorStats
from repro.obs.timing import now_wall
from repro.sources.resilience import worst_status
from repro.storage.columnar import EXACT_INT_LIMIT, ColumnStore
from repro.storage.index import SortedIndex

#: Rows per batch.
BATCH_SIZE = 1024
#: An index range holding at least this share of its table's rows is
#: read as one mask over the access column's typed mirror, not the
#: index (measured in docs/EXECUTION.md, "The batch operator set").
RANGE_MASK_SHARE = 1 / 32


class Batch:
    """One batch of rows in columnar form.

    ``columns`` maps column name to a value list; every list has
    ``length`` entries and position ``i`` across all lists is one row.
    ``order`` fixes the column order rows materialize with, mirroring
    the key order of the row engine's dicts. A scan's batch also keeps
    its ``source`` — the column store and the buffer positions it
    selected — so an aggregate over the scan can fold the store's
    mirrors at those positions instead of gathered values.
    """

    __slots__ = ("order", "columns", "length", "source")

    def __init__(self, order: tuple[str, ...],
                 columns: dict[str, list[Any]], length: int,
                 source: tuple[ColumnStore, Any] | None = None) -> None:
        self.order = order
        self.columns = columns
        self.length = length
        self.source = source

    def __len__(self) -> int:
        return self.length

    def values(self, name: str) -> list[Any]:
        """One column's values; missing columns read as all-NULL
        (the batch analogue of ``row.get``)."""
        if name in self.columns:
            return self.columns[name]
        return [None] * self.length

    def take(self, positions: Sequence[int]) -> "Batch":
        """A new batch keeping *positions*, in the given order."""
        taken = {
            name: [buffer[p] for p in positions]
            for name, buffer in self.columns.items()
        }
        return Batch(self.order, taken, len(positions))

    def tuples(self) -> Iterator[tuple]:
        """The rows as value tuples in ``order``, ``()`` if it is empty."""
        if not self.order:
            return repeat((), self.length)
        return zip(*[self.columns[name] for name in self.order])

    def iter_rows(self) -> Iterator[dict[str, Any]]:
        """Dict rows, for the row operators that drain a batch one."""
        order = self.order
        return (dict(zip(order, values)) for values in self.tuples())

    def __repr__(self) -> str:
        return f"Batch(rows={self.length}, columns={list(self.order)})"


def batch_from_rows(rows: list[dict[str, Any]]) -> Batch:
    """Columnarize dict rows (the fallback adapter's direction)."""
    if not rows:
        return Batch((), {}, 0)
    order = tuple(rows[0].keys())
    columns = {name: [row.get(name) for row in rows] for name in order}
    return Batch(order, columns, len(rows))


class VectorOp:
    """One batch-at-a-time plan operator.

    Mirrors :class:`~repro.core.query.physical.PhysicalOp`: registers
    itself in the shared counters' operator list and exposes ``rows()``
    so the row engine can drain the batch operators it shares without
    knowing about batches. The executor drains the plan root's
    ``batches()`` into value tuples itself.
    """

    def __init__(self, counters: ExecCounters) -> None:
        self.counters = counters
        counters.operators.append(type(self).__name__)

    def batches(self) -> Iterator[Batch]:
        raise NotImplementedError

    def rows(self) -> Iterator[dict[str, Any]]:
        for batch in self.batches():
            yield from batch.iter_rows()

    def _emit(self, batch: Batch) -> Batch:
        self.counters.batches_emitted += 1
        self.counters.batch_rows += len(batch)
        return batch


class InstrumentedVecOp:
    """EXPLAIN ANALYZE wrapper charging stats per *batch*.

    The batch analogue of :class:`~repro.obs.explain.InstrumentedOp`:
    timing brackets each ``next()`` on the batch iterator and
    ``rows_out`` advances by the batch length, so operator actuals mean
    the same thing in both modes.
    """

    __slots__ = ("inner", "stats", "clock", "counters")

    def __init__(self, inner: VectorOp, stats: OperatorStats,
                 clock: Any | None = None) -> None:
        self.inner = inner
        self.stats = stats
        self.clock = clock
        self.counters = inner.counters

    def batches(self) -> Iterator[Batch]:
        stats = self.stats
        clock = self.clock
        stats.loops += 1
        iterator = self.inner.batches()
        while True:
            wall_started = now_wall()
            virtual_started = clock.now() if clock is not None else 0.0
            try:
                batch = next(iterator)
            except StopIteration:
                stats.wall_s += now_wall() - wall_started
                if clock is not None:
                    stats.virtual_s += clock.now() - virtual_started
                return
            stats.wall_s += now_wall() - wall_started
            if clock is not None:
                stats.virtual_s += clock.now() - virtual_started
            stats.rows_out += len(batch)
            yield batch

    rows = VectorOp.rows

    def set_join_keys(self, keys) -> None:
        self.inner.set_join_keys(keys)


#: Comparisons a typed mirror answers as one mask over a chunk.
_MASK_OPS = {
    "=": np.equal, "!=": np.not_equal, "<": np.less,
    "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal,
}


def _literal_fits(exact: type | None, literal: Any) -> bool:
    """True when comparing *literal* with a mirror holding *exact*
    values in numpy answers exactly as Python compares it with the
    list's values: a number (not a bool, NaN or an int past float64's
    exact range) for a FLOAT/INT column, a bool for a BOOL column."""
    if exact is None:
        return False
    cls = type(literal)
    if exact is bool:
        return cls is bool
    if cls is float:
        return literal == literal
    return cls is int and -EXACT_INT_LIMIT < literal < EXACT_INT_LIMIT


def compile_scan_tests(store: ColumnStore, residual) -> tuple:
    """Compile a residual list to ``(column, closure, mask_op, literal)``.

    ``mask_op`` is the numpy comparison to run on the column's typed
    mirror, or None when only the closure applies (a string column, a
    non-comparison operator, a literal of another kind).
    """
    tests = []
    for pred in residual:
        mask_op = _MASK_OPS.get(pred.op)
        if mask_op is not None and not _literal_fits(
                store.mirror_types.get(pred.column), pred.value):
            mask_op = None
        tests.append((pred.column, compile_comparison(pred), mask_op,
                      pred.value))
    return tuple(tests)


def _where(positions) -> Any:
    """Buffer positions as an index: a ``range`` as a slice (a view of a
    mirror, a copy of a list), anything else as an ``intp`` array."""
    if isinstance(positions, range):
        return slice(positions.start, positions.stop)
    return np.asarray(positions, dtype=np.intp)


def _take(buffer: list[Any], getter) -> list[Any]:
    """Gather through ``itemgetter(*positions)`` (one position: a bare
    index, as ``itemgetter`` then returns the item, not a tuple)."""
    if type(getter) is int:
        return [buffer[getter]]
    return list(getter(buffer))


class _VecScanBase(VectorOp):
    """Shared gather/filter machinery of the two scans."""

    def __init__(self, counters: ExecCounters, store: ColumnStore,
                 residual, columns: tuple[str, ...] | None) -> None:
        super().__init__(counters)
        self.store = store
        self.tests = compile_scan_tests(store, residual)
        if columns is None:
            self.columns = store.column_names
        else:
            self.columns = tuple(c for c in store.column_names
                                 if c in columns)

    def _select(self, chunk):
        """The positions of *chunk* that pass every test, in order.

        *chunk* is a ``range`` (a seq scan's window) or an ``intp``
        array (an index scan's positions); so is the answer, or a list
        once a closure ran. Typed views are taken here, after the
        positions exist, so a concurrent append never leaves one short.
        """
        store = self.store
        selected = chunk
        for name, test, mask_op, literal in self.tests:
            mirror = store.typed(name) if mask_op is not None else None
            if mirror is None:
                buffer = store.column(name)
                if isinstance(selected, np.ndarray):
                    selected = selected.tolist()
                selected = list(compress(
                    selected, map(test, map(buffer.__getitem__, selected))))
            else:
                data, valid = mirror
                where = _where(selected)
                mask = mask_op(data[where], literal)
                if valid is not None:
                    mask &= valid[where]
                selected = (np.flatnonzero(mask) + where.start
                            if type(where) is slice else where[mask])
            if not len(selected):
                break
        return selected

    def _scan_chunk(self, chunk) -> Batch | None:
        """Count, filter, and gather one chunk of buffer positions."""
        self.counters.rows_scanned += len(chunk)
        selected = self._select(chunk)
        if not len(selected):
            return None
        self.counters.rows_emitted += len(selected)
        store = self.store
        if not self.columns:  # an aggregate reads the store itself
            columns = {}
        elif isinstance(selected, range):
            window = _where(selected)
            columns = {name: store.column(name)[window]
                       for name in self.columns}
        else:
            positions = (selected.tolist()
                         if isinstance(selected, np.ndarray) else selected)
            getter = (positions[0] if len(positions) == 1
                      else itemgetter(*positions))
            columns = {name: _take(store.column(name), getter)
                       for name in self.columns}
        return Batch(self.columns, columns, len(selected),
                     (store, selected))


class VecScanOp(_VecScanBase):
    """Read one table through its plan's access path, from the column
    store: every live position for a full scan, else ``positions_of``
    the row ids the index probes return (the same probes, in the same
    order, as the row engine's :class:`ScanOp`).

    Positions are read in chunks of :data:`BATCH_SIZE`; under a bare
    ``LIMIT`` the first chunk holds *first_chunk* (the limit) and each
    next one twice the last, so the scan reads about what the limit
    needs, not a whole batch."""

    def __init__(self, counters: ExecCounters, table, node: LogicalScan,
                 columns: tuple[str, ...] | None = None,
                 first_chunk: int | None = None) -> None:
        super().__init__(counters, table.column_store(), node.residual,
                         columns)
        self.table = table
        self.node = node
        self.first_chunk = first_chunk
        self.probes, membership = resolve_access(table, node)
        if membership is not None:
            column, keys = membership
            self.tests = ((column, keys.__contains__, None, None),
                          *self.tests)
        #: ``(index, column, band)`` of a range the mirror may answer.
        column, band = node.access_column, node.band
        exact = self.store.mirror_types.get(column)
        self.band = (table.index_on(column, True), column, band) if (
            node.access == "index_range" and all(
                end is None or _literal_fits(exact, end) for end in band[:2])
        ) else None

    def set_join_keys(self, keys) -> None:
        """Probe *keys*, a ``join_keys`` scan's build keys (the join
        hands them over once its hash table is built)."""
        self.probes, _ = resolve_access(self.table, self.node, keys)

    def _batches_of(self, positions) -> Iterator[Batch]:
        start = 0
        size = min(self.first_chunk or BATCH_SIZE, BATCH_SIZE)
        if not self.columns:  # nothing gathered: one chunk, one mask
            size = max(len(positions), 1)
        while start < len(positions):
            batch = self._scan_chunk(positions[start:start + size])
            start += size
            size = min(2 * size, BATCH_SIZE)
            if batch is not None:
                yield self._emit(batch)

    def _masked(self) -> np.ndarray | None:
        """A wide band's positions as one mask over its column's mirror,
        ascending (position order is row-id order: ``check_append``);
        None when the band is narrow or the mirror was refused."""
        index, column, band = self.band
        n = len(self.store)  # before the mirror: it holds every position
        mirror = self.store.typed(column)
        if mirror is None or index.count(*band) < n * RANGE_MASK_SHARE:
            return None
        low, high, include_low, include_high = band
        data, valid = mirror[0][:n], mirror[1]
        mask = None if valid is None else valid[:n]
        for end, op in ((low, ">=" if include_low else ">"),
                        (high, "<=" if include_high else "<")):
            if end is not None:  # `valid` is the store's: and into `test`
                test = _MASK_OPS[op](data, end)
                mask = test if mask is None else np.logical_and(
                    mask, test, out=test)
        return np.arange(n) if mask is None else np.flatnonzero(mask)

    def batches(self) -> Iterator[Batch]:
        if self.probes is None:
            yield from self._batches_of(self.store.live_positions())
            return
        positions = None if self.band is None else self._masked()
        if positions is not None:
            self.counters.index_probes += 1
            yield from self._batches_of(positions)
            return
        if len(self.probes) == 1:  # no copy: big ranges would lift peak RSS
            self.counters.index_probes += 1
            row_ids = self.probes[0]()
        else:  # each probe's ids ascend: merge them
            row_ids = []
            for probe in self.probes:
                self.counters.index_probes += 1
                row_ids += probe()
            row_ids.sort()
        yield from self._batches_of(self.store.positions_of(row_ids))


class CladeAggregateOp(VectorOp):
    """A clade aggregate answered from the materialized clade stats
    (``DrugTree.clade_stats``) as one one-row batch: a lookup, not a
    scan. Shared by both lowerings (the row engine drains ``rows()``,
    which counts no batches)."""

    def __init__(self, counters: ExecCounters, drugtree,
                 node: LogicalCladeAggregate | LogicalCladeTopK) -> None:
        super().__init__(counters)
        self.drugtree = drugtree
        self.node = node

    def _answer(self) -> Batch:
        stats = self.drugtree.clade_stats(self.node.node_name)
        count = stats["count"]
        columns: dict[str, list[Any]] = {}
        for aggregate in self.node.aggregates:
            func = aggregate.func
            if func == "count":
                value = int(count)
            elif func == "sum":
                value = stats["mean"] * count
            else:  # mean or max: the planner offers no other
                value = stats[func] if count else None
            columns[aggregate.output_name] = [value]
        self.counters.rows_emitted += 1
        return Batch(tuple(columns), columns, 1)

    def batches(self) -> Iterator[Batch]:
        batch = self._answer()
        if len(batch):  # a top-k may find no row
            yield self._emit(batch)

    def rows(self) -> Iterator[dict[str, Any]]:
        yield from self._answer().iter_rows()


class CladeTopKOp(CladeAggregateOp):
    """A top-k from a node's best bindings, read once: the first
    ``limit`` keys that pass the bounds, their rows gathered by id, as
    one batch. Exact when fewer qualify too: a row the list left out
    ranks below it. Scans no row."""

    def _answer(self) -> Batch:
        node = self.node
        keys = self.drugtree.clade_aggregates.best_for_name(node.node_name)
        tests = [compile_comparison(bound) for bound in node.bounds]
        table = self.drugtree.tables[BINDINGS_TABLE]
        rows = []
        for key, row_id in keys[:node.limit]:
            if not all(test(-key) for test in tests):
                break
            rows.append(table.get(row_id))
        position = table.schema.index_of
        columns = {name: [row[position(name)] for row in rows]
                   for name in node.columns}
        self.counters.rows_emitted += len(rows)
        return Batch(node.columns, columns, len(rows))


#: Rows whose remote details one :class:`RemoteFetchOp` request fetches.
REMOTE_LOOKAHEAD = 64


class RemoteFetchOp(VectorOp):
    """Enrich rows with remote detail columns via the fetch scheduler.

    Cuts the child's row stream into groups of :data:`REMOTE_LOOKAHEAD`
    rows, across the child's batch boundaries, so the groups (and with
    them every round trip, status and virtual second) do not depend on
    the batch size. Each group's distinct keys go out in *one*
    scatter/gather batch: every record kind the projected detail
    columns need is fetched in the same
    :meth:`FetchScheduler.fetch_all_resilient` call, so round-trips to
    different sources overlap and repeated keys collapse. Each group
    leaves as one batch, so a LIMIT above stops the fetching at the
    group that fills it. Rows whose record is missing at the source get
    ``None`` details.

    Whether a source fault aborts the query or comes back flagged is
    the scheduler's ``degrades(deadline)`` policy; the engine passes a
    *statuses* sink exactly when it degrades, and per-kind statuses are
    merged into it (worst across groups). *deadline* bounds the
    virtual time the fetches may spend.
    """

    def __init__(self, counters: ExecCounters, child,
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

    def batches(self) -> Iterator[Batch]:
        size = REMOTE_LOOKAHEAD
        held: Batch | None = None
        for batch in self.child.batches():
            if not len(batch):
                continue
            if held is not None:
                batch = Batch(held.order, {
                    name: held.columns[name] + batch.values(name)
                    for name in held.order
                }, len(held) + len(batch))
            whole = len(batch) - len(batch) % size
            for start in range(0, whole, size):
                yield self._enrich(batch.take(range(start, start + size)))
            held = (batch.take(range(whole, len(batch)))
                    if whole < len(batch) else None)
        if held is not None:
            yield self._enrich(held)

    def _enrich(self, group: Batch) -> Batch:
        keys = group.values(self.key_column)
        wanted = sorted({key for key in keys if key is not None})
        kinds = sorted({kind for _, kind, _ in self.specs})
        fetched = self._fetch([(kind, wanted) for kind in kinds])
        columns = dict(group.columns)
        for column, kind, attribute in self.specs:
            records = fetched.get(kind, {})
            columns[column] = [getattr(records.get(key), attribute, None)
                               for key in keys]
        order = tuple(dict.fromkeys(
            (*group.order, *(column for column, _, _ in self.specs))))
        self.counters.rows_emitted += len(group)
        return self._emit(Batch(order, columns, len(group)))

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


class RowSourceAdapterOp(VectorOp):
    """Batch a row operator's output: the row engine's way into
    :class:`RemoteFetchOp`. A batch holds one fetch group
    (:data:`REMOTE_LOOKAHEAD` rows), so the row engine reads no more of
    its child than the fetches need. The wrapped operator does its own
    row accounting; this adapter only columnarizes.
    """

    def __init__(self, counters: ExecCounters, row_op: Any) -> None:
        super().__init__(counters)
        self.row_op = row_op

    def batches(self) -> Iterator[Batch]:
        buffer: list[dict[str, Any]] = []
        for record in self.row_op.rows():
            buffer.append(record)
            if len(buffer) >= REMOTE_LOOKAHEAD:
                yield self._emit(batch_from_rows(buffer))
                buffer = []
        if buffer:
            yield self._emit(batch_from_rows(buffer))


class IndexOrderScanOp(_VecScanBase):
    """Walk a sorted index in key order; stop once ``limit`` rows pass.

    The scan under ``ORDER BY c LIMIT k``, shared by both lowerings
    (the row engine drains ``rows()``, which counts no batches).
    ``index_probes += 1``, ``rows_scanned`` = index entries walked,
    ``rows_emitted`` = rows yielded; the residual runs on the column
    buffers and only emitted rows are gathered.
    """

    def __init__(self, counters: ExecCounters, table, node: LogicalScan,
                 columns: tuple[str, ...] | None = None,
                 stats: OperatorStats | None = None) -> None:
        super().__init__(counters, table.column_store(), node.residual,
                         columns)
        self.index = table.index_on(node.access_column,
                                    require_range=True)
        if not isinstance(self.index, SortedIndex):
            raise PlanError(
                f"plan needs a sorted index on {node.access_column!r}"
            )
        self.node = node
        self.stats = stats

    def _walk(self) -> Batch:
        node, store = self.node, self.store
        tests = [(store.column(name), test)
                 for name, test, _, _ in self.tests]
        position_of = store.position_of
        selected: list[int] = []
        walked = 0
        for row_id in self.index.ordered(node.descending, *node.band):
            walked += 1
            position = position_of(row_id)
            for buffer, test in tests:
                if not test(buffer[position]):
                    break
            else:
                selected.append(position)
                if len(selected) >= node.limit:
                    break
        self.counters.index_probes += 1
        self.counters.rows_scanned += walked
        self.counters.rows_emitted += len(selected)
        if self.stats is not None:
            self.stats.walked = walked
        columns = {name: store.gather(name, selected)
                   for name in self.columns}
        return Batch(self.columns, columns, len(selected))

    def batches(self) -> Iterator[Batch]:
        batch = self._walk()
        if len(batch):
            yield self._emit(batch)

    def rows(self) -> Iterator[dict[str, Any]]:
        yield from self._walk().iter_rows()


class VecFilterOp(VectorOp):
    """Batch filter (the HAVING stage) over compiled predicates."""

    def __init__(self, counters: ExecCounters, child,
                 predicates) -> None:
        super().__init__(counters)
        self.child = child
        self.predicates = predicates
        self.compiled = compile_columns(predicates)

    def batches(self) -> Iterator[Batch]:
        for batch in self.child.batches():
            keep = range(len(batch))
            for name, test in self.compiled:
                values = batch.values(name)
                keep = [i for i in keep if test(values[i])]
            if not keep:
                continue
            self.counters.rows_emitted += len(keep)
            yield self._emit(batch.take(list(keep)))


class VecProjectOp(VectorOp):
    def __init__(self, counters: ExecCounters, child,
                 columns: tuple[str, ...]) -> None:
        super().__init__(counters)
        self.child = child
        self.columns = columns

    def batches(self) -> Iterator[Batch]:
        for batch in self.child.batches():
            missing = [c for c in self.columns
                       if c not in batch.columns]
            if missing:
                raise QueryError(
                    f"projection references missing column "
                    f"'{missing[0]}'"
                )
            projected = {name: batch.columns[name]
                         for name in self.columns}
            yield self._emit(Batch(self.columns, projected, len(batch)))


class VecHashAggregateOp(VectorOp):
    """Grouped/scalar aggregation.

    With *positional* (the lowering's choice when the input is a scan)
    the scan gathers no column: the fold reads the column store at the
    positions the scan selected, all of its chunks at once — each folded
    column's typed mirror, a STRING group key's coded mirror, and the
    lists only where a column has no mirror. Otherwise each batch's
    gathered lists are folded as they arrive. Either way a group's rows
    fold in scan order, and a column folds once however many aggregates
    read it (one ``_AggState`` answers every function).
    """

    def __init__(self, counters: ExecCounters, child,
                 aggregates: tuple[AggregateSpec, ...],
                 group_by: str | None = None,
                 positional: bool = False) -> None:
        super().__init__(counters)
        self.child = child
        self.aggregates = aggregates
        self.group_by = group_by
        self.positional = positional
        #: The folded columns, ``"*"`` (the row count) included.
        self.folded = tuple(dict.fromkeys(agg.column for agg in aggregates))

    def batches(self) -> Iterator[Batch]:
        groups: dict[Any, dict[str, _AggState]] = {}
        # inf + -inf is NaN and 1e308 + 1e308 is inf for ``total += v``
        # too, but without a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            if self.positional:
                self._fold_scan(groups)
            else:
                for batch in self.child.batches():
                    if len(batch):
                        self._fold(groups, np.arange(len(batch)),
                                   batch.values, _no_mirror, _no_mirror)
        if not groups and self.group_by is None:
            # Scalar aggregate over an empty input still yields one row.
            groups[None] = self._states()
        out_rows = []
        for key in sorted(groups, key=repr):
            states = groups[key]
            out: dict[str, Any] = {}
            if self.group_by is not None:
                out[self.group_by] = key
            for agg in self.aggregates:
                out[agg.output_name] = states[agg.column].result(agg.func)
            self.counters.rows_emitted += 1
            out_rows.append(out)
        if out_rows:
            yield self._emit(batch_from_rows(out_rows))

    def _states(self) -> dict[str, _AggState]:
        return {name: _AggState() for name in self.folded}

    def _fold_scan(self, groups) -> None:
        """Fold every position the scan selected, in scan order."""
        chunks = [batch.source for batch in self.child.batches()
                  if len(batch)]
        if not chunks:
            return
        parts = [np.arange(selected.start, selected.stop)
                 if type(selected) is range
                 else np.asarray(selected, dtype=np.intp)
                 for _, selected in chunks]
        where = parts[0] if len(parts) == 1 else np.concatenate(parts)
        store = chunks[0][0]
        self._fold(groups, where, store.column, store.typed, store.coded)

    def _fold(self, groups, where: np.ndarray, column, typed,
              coded) -> None:
        """Fold the rows at *where* (indexes into each ``column(name)``
        list, and into its ``typed``/``coded`` mirror if it has one).

        Group keys are coded — a coded mirror's codes, or else each
        row's index of its key's first row — and one stable argsort puts
        each group's rows together, in scan order; every aggregate then
        folds one slice per group.
        """
        bounds = [0, len(where)]
        if self.group_by is None:
            keys = [None]
        else:
            codes, named = _group_codes(self.group_by, where, column, coded)
            # numpy radix-sorts 16-bit keys; wider ones take a timsort
            # several times slower.
            order = np.argsort(
                codes.astype(np.uint16) if len(named) <= 1 << 16 else codes,
                kind="stable")
            codes, where = codes[order], where[order]
            edges = (np.flatnonzero(codes[1:] != codes[:-1]) + 1).tolist()
            bounds = [0, *edges, len(where)]
            keys = [named[code] for code in codes[bounds[:-1]].tolist()]
        folds = []
        for name in self.folded:
            mirror = None if name == "*" else typed(name)
            if name == "*":
                folds.append((name, None, None))
            elif mirror is None:
                folds.append((name, _gather(column(name), where), None))
            else:  # the mirror's rows; min/max answer with the list's
                data, valid = mirror
                folds.append((name, column(name), (
                    data[where], None if valid is None else valid[where])))
        for group, key in enumerate(keys):
            states = groups.get(key)
            if states is None:
                states = groups[key] = self._states()
            start, stop = bounds[group], bounds[group + 1]
            for name, values, mirrored in folds:
                state = states[name]
                if values is None:
                    state.count += stop - start
                elif mirrored is None:
                    state.fold_many(values[start:stop])
                else:
                    data, valid = mirrored
                    fold_typed(state, values, data[start:stop],
                               None if valid is None else valid[start:stop],
                               where[start:stop])


def _no_mirror(name: str) -> None:
    """A batch's columns have no mirror."""
    return None


def _gather(buffer: list[Any], where: np.ndarray) -> list[Any]:
    """``buffer``'s values at the positions *where*, in order."""
    if len(where) == 1:
        return [buffer[int(where[0])]]
    return list(itemgetter(*where.tolist())(buffer))


def _group_codes(name: str, where: np.ndarray, column,
                 coded) -> tuple[np.ndarray, list[Any]]:
    """``(codes, keys)`` of column *name* at *where*: each row's key is
    ``keys[code]``. From the coded mirror when the column has one, else
    by hashing the gathered values: a code is then the index of the
    key's first row."""
    mirror = coded(name)
    if mirror is not None:
        codes, values = mirror
        return codes[where], values
    keys = _gather(column(name), where)
    first: dict[Any, int] = {}
    return np.fromiter(map(first.setdefault, keys, count()),
                       dtype=np.intp, count=len(keys)), keys


def fold_typed(state: _AggState, values: list[Any], data: np.ndarray,
               valid: np.ndarray | None,
               rows: np.ndarray | None = None) -> None:
    """``state.fold_many`` over typed data, with the same answer.

    ``data``/``valid`` are the mirrored slice of the rows folded;
    ``rows`` maps an entry of ``data`` to its index in ``values`` (the
    column's list; None when they align). NULLs are skipped.
    The sum is ``np.add.accumulate`` seeded with the running total —
    the same sequential additions as ``total += v``, so floats stay
    bit-identical (``np.sum`` adds pairwise and is not). ``min``/``max``
    take the *first* extreme (``argmin``/``argmax``), as the strict
    ``<``/``>`` of the row fold keeps the first of equal values (which
    decides between ``-0.0`` and ``0.0``), and answer with the list's
    object at that row. Bools, as in the row fold, add nothing to the
    total.
    """
    if valid is not None and not valid.all():
        kept = np.flatnonzero(valid)
        data = data[kept]
        rows = kept if rows is None else rows[kept]
    if not len(data):
        return
    state.count += len(data)
    if data.dtype != np.bool_:
        state.total = float(np.add.accumulate(
            np.concatenate(((state.total,), data)))[-1])
    low, high = int(np.argmin(data)), int(np.argmax(data))
    if rows is not None:
        low, high = int(rows[low]), int(rows[high])
    minimum, maximum = values[low], values[high]
    if state.minimum is None or minimum < state.minimum:
        state.minimum = minimum
    if state.maximum is None or maximum > state.maximum:
        state.maximum = maximum


class _Materializing(VectorOp):
    """Shared concat step of the blocking operators (sort, the hash
    join's build side)."""

    def _materialize(self, child) -> Batch:
        batches = [batch for batch in child.batches() if len(batch)]
        if not batches:
            return Batch((), {}, 0)
        order = batches[0].order
        columns = {name: [] for name in order}
        total = 0
        for batch in batches:
            total += len(batch)
            for name in order:
                columns[name].extend(batch.values(name))
        return Batch(order, columns, total)


class VecSortOp(_Materializing):
    def __init__(self, counters: ExecCounters, child,
                 order_by: OrderBy) -> None:
        super().__init__(counters)
        self.child = child
        self.order_by = order_by

    def batches(self) -> Iterator[Batch]:
        merged = self._materialize(self.child)
        if not len(merged):
            return
        keys = merged.values(self.order_by.column)
        # sorted() is stable, exactly like the row engine's list.sort:
        # ties keep arrival order under either mode.
        indices = sorted(range(len(merged)),
                         key=lambda i: _sort_key(keys[i]),
                         reverse=self.order_by.descending)
        size = BATCH_SIZE
        for start in range(0, len(indices), size):
            yield self._emit(merged.take(indices[start:start + size]))


class VecTopKOp(VectorOp):
    """Bounded running top-k: per batch, ``heapq.nlargest/nsmallest``
    over the kept rows plus the batch (the documented equivalent of a
    stable full sort sliced to k). Kept rows go first, so ties keep
    arrival order; nothing beyond ``limit`` rows outlives a batch."""

    def __init__(self, counters: ExecCounters, child,
                 order_by: OrderBy, limit: int) -> None:
        super().__init__(counters)
        self.child = child
        self.order_by = order_by
        self.limit = limit

    def batches(self) -> Iterator[Batch]:
        pick = (heapq.nlargest if self.order_by.descending
                else heapq.nsmallest)
        kept: Batch | None = None
        for batch in self.child.batches():
            if not len(batch):
                continue
            if kept is not None:
                batch = Batch(kept.order, {
                    name: kept.columns[name] + batch.values(name)
                    for name in kept.order
                }, len(kept) + len(batch))
            keys = [_sort_key(value)
                    for value in batch.values(self.order_by.column)]
            kept = batch.take(pick(self.limit, range(len(batch)),
                                   key=keys.__getitem__))
        if kept is None:
            return
        self.counters.rows_emitted += len(kept)
        yield self._emit(kept)


class VecLimitOp(VectorOp):
    def __init__(self, counters: ExecCounters, child,
                 limit: int) -> None:
        super().__init__(counters)
        self.child = child
        self.limit = limit

    def batches(self) -> Iterator[Batch]:
        remaining = self.limit
        for batch in self.child.batches():
            if len(batch) > remaining:
                batch = batch.take(list(range(remaining)))
            remaining -= len(batch)
            self.counters.rows_emitted += len(batch)
            yield self._emit(batch)
            if remaining <= 0:
                return


class VecHashJoinOp(_Materializing):
    """Batch equi-join; buckets of build positions, probed per batch
    (when *keyed*, by a ``join_keys`` scan of the buckets' keys).

    Merged rows replicate the row engine's ``{**build, **probe}``:
    build columns first, probe-only columns appended, and a column
    present on both sides takes the probe value.
    """

    def __init__(self, counters: ExecCounters, build, probe,
                 key: str, keyed: bool = False) -> None:
        super().__init__(counters)
        self.build = build
        self.probe = probe
        self.key = key
        self.keyed = keyed

    def batches(self) -> Iterator[Batch]:
        build = self._materialize(self.build)
        buckets: dict[Any, list[int]] = {}
        build_keys = build.values(self.key)
        for position, key in enumerate(build_keys):
            buckets.setdefault(key, []).append(position)
        if self.keyed:
            self.probe.set_join_keys(buckets)
        hit = buckets.__contains__
        for batch in self.probe.batches():
            probe_keys = batch.values(self.key)
            build_positions: list[int] = []
            probe_positions: list[int] = []
            # Only the hits are expanded; most probe keys miss.
            for i in compress(range(len(probe_keys)),
                              map(hit, probe_keys)):
                bucket = buckets[probe_keys[i]]
                build_positions += bucket
                probe_positions += [i] * len(bucket)
            if not build_positions:
                continue
            self.counters.rows_emitted += len(build_positions)
            order = build.order + tuple(
                c for c in batch.order if c not in build.columns
            )
            columns: dict[str, list[Any]] = {}
            for name in order:
                if name in batch.columns:  # probe wins shared columns
                    source = batch.columns[name]
                    columns[name] = [source[p] for p in probe_positions]
                else:
                    source = build.columns[name]
                    columns[name] = [source[p] for p in build_positions]
            yield self._emit(Batch(order, columns,
                                   len(build_positions)))


def needed_columns(node: LogicalNode) -> set[str] | None:
    """Columns the plan above the scans actually consumes.

    ``None`` means "all": without a Project or Aggregate bounding the
    output, raw scan rows surface directly and every schema column must
    be gathered. Otherwise scans gather only this set (plus whatever
    their own access path needs), which is the "columnar projection"
    half of the speedup.
    """
    needed: set[str] = set()
    shaped = False
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, LogicalProject):
            shaped = True
            needed.update(current.columns)
            if any(c in REMOTE_DETAIL_COLUMNS for c in current.columns):
                needed.add("protein_id")  # the fetch key
        elif isinstance(current, LogicalAggregate):
            shaped = True
            needed.update(agg.column for agg in current.aggregates
                          if agg.column != "*")
            if current.group_by:
                needed.add(current.group_by)
        elif isinstance(current, LogicalJoin):
            needed.add(current.key)
        elif isinstance(current, LogicalOrder):
            needed.add(current.order_by.column)
        stack.extend(current.children())
    return needed if shaped else None


class VectorizedLowering:
    """Lower logical plans to batch operators (the vectorized mirror of
    ``RowLowering``): every logical node has a batch form."""

    def __init__(self, engine, counters: ExecCounters,
                 probe: OperatorStats | None, clock, deadline,
                 statuses) -> None:
        self.engine = engine
        self.counters = counters
        self.probe = probe
        self.clock = clock
        self.deadline = deadline
        self.statuses = statuses
        self.needed: set[str] | None = None
        #: The scan a bare LIMIT reads in growing chunks, and the limit.
        self.first_chunk: tuple[LogicalScan, int] | None = None

    def lower_plan(self, node: LogicalNode):
        self.needed = needed_columns(node)
        return self._to_vector(node, self.probe)

    def _to_vector(self, node: LogicalNode,
                   probe: OperatorStats | None):
        if probe is None:
            return self._lower(node, None)
        stats = probe.child(node.describe(),
                            getattr(node, "estimated_rows", None))
        return InstrumentedVecOp(self._lower(node, stats), stats,
                                 self.clock)

    def _lower(self, node: LogicalNode,
               stats: OperatorStats | None) -> VectorOp:
        if isinstance(node, LogicalScan):
            return self._scan_op(node, stats)
        if isinstance(node, LogicalCladeAggregate):
            return CladeAggregateOp(self.counters, self.engine.drugtree,
                                    node)
        if isinstance(node, LogicalCladeTopK):
            return CladeTopKOp(self.counters, self.engine.drugtree, node)
        if isinstance(node, LogicalJoin):
            left = self._to_vector(node.left, stats)
            right = self._to_vector(node.right, stats)
            return VecHashJoinOp(self.counters, right, left, node.key,
                                 node.keyed)
        if isinstance(node, LogicalAggregate):
            positional = isinstance(node.child, LogicalScan) and \
                node.child.access != "index_order"
            if positional:  # the plan's one scan: the fold reads the store
                self.needed = set()
            child = self._to_vector(node.child, stats)
            return VecHashAggregateOp(self.counters, child,
                                      node.aggregates, node.group_by,
                                      positional)
        if isinstance(node, LogicalHaving):
            child = self._to_vector(node.child, stats)
            return VecFilterOp(self.counters, child, node.conditions)
        if isinstance(node, LogicalProject):
            child = self._to_vector(node.child, stats)
            remote = tuple(c for c in node.columns
                           if c in REMOTE_DETAIL_COLUMNS)
            if remote:
                child = self.engine._remote_fetch_op(
                    remote, child, self.counters,
                    self.deadline, self.statuses)
            return VecProjectOp(self.counters, child, node.columns)
        if isinstance(node, LogicalOrder):
            child = self._to_vector(node.child, stats)
            if node.limit is not None:
                return VecTopKOp(self.counters, child, node.order_by,
                                 node.limit)
            return VecSortOp(self.counters, child, node.order_by)
        if isinstance(node, LogicalLimit):
            below = node.child
            if isinstance(below, LogicalProject):
                below = below.child
            while isinstance(below, LogicalJoin):  # down the probe spine
                below = below.left
            if isinstance(below, LogicalScan):  # read what the limit needs
                self.first_chunk = below, max(node.limit, 1)
            child = self._to_vector(node.child, stats)
            return VecLimitOp(self.counters, child, node.limit)
        raise PlanError(f"cannot lower {type(node).__name__}")

    def _scan_op(self, node: LogicalScan, stats=None) -> VectorOp:
        table = self.engine.drugtree.tables[node.table]
        if node.access == "index_order":
            return IndexOrderScanOp(self.counters, table, node, self.needed,
                                    stats)
        limited, limit = self.first_chunk or (None, None)
        return VecScanOp(self.counters, table, node, self.needed,
                         limit if node is limited else None)
