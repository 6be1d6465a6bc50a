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
  positions, or takes every live position for a full scan;
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
* aggregation folds a scan batch's typed slice where the column has a
  mirror — ``np.add.accumulate`` seeded with the running total (a
  sequential sum, bit-identical to the row engine's ``total += v``;
  ``np.sum`` is pairwise and is not), first-occurrence ``argmin``/
  ``argmax`` answered with the list's object — and folds anything else
  via ``_AggState.fold_many``, in the same left-to-right order;
* ``RemoteFetchOp`` has no batch form: its child drains through it as
  rows and :class:`RowSourceAdapterOp` re-batches the enriched output.
  Plans holding any other batch-less node (provably empty, clade fast
  path, nested-loop join) never reach this module — the row rule in
  :mod:`repro.core.query.adaptive` sends them to the row engine whole.

Result parity is a hard contract: same rows, same order, same
``rows_scanned``/``rows_emitted``/``index_probes``. The one documented
exception is early termination (a bare ``LIMIT`` without ``ORDER BY``):
scans work at batch granularity, so an abandoned scan may have counted
up to one batch more than the row engine's row-granular stop.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator, Sequence
from itertools import compress, count, repeat
from operator import itemgetter
from typing import Any

import numpy as np

from repro.core.query.ast import REMOTE_DETAIL_COLUMNS, AggregateSpec, OrderBy
from repro.core.query.logical import (
    LogicalAggregate,
    LogicalHaving,
    LogicalJoin,
    LogicalLimit,
    LogicalNode,
    LogicalOrder,
    LogicalProject,
    LogicalScan,
    rows_estimate,
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
from repro.storage.columnar import EXACT_INT_LIMIT, ColumnStore
from repro.storage.index import SortedIndex

#: Rows per batch.
BATCH_SIZE = 1024


class Batch:
    """One batch of rows in columnar form.

    ``columns`` maps column name to a value list; every list has
    ``length`` entries and position ``i`` across all lists is one row.
    ``order`` fixes the column order rows materialize with, mirroring
    the key order of the row engine's dicts. A scan's batch also keeps
    its ``source`` — the column store and the buffer positions it
    gathered — so a fold can read the same rows from the typed mirrors.
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

    def typed(self, name: str) -> tuple[np.ndarray, Any] | None:
        """``(data, valid)`` of one column from its typed mirror, aligned
        with this batch's rows (``valid`` is None for a column that
        cannot hold NULL); None when the batch is not a scan's or the
        column has no mirror. Built on demand: only folds read it."""
        if self.source is None or name not in self.columns:
            return None
        store, positions = self.source
        mirror = store.typed(name)
        if mirror is None:
            return None
        where = _where(positions)
        if type(where) is not slice:
            self.source = (store, where)
        data, valid = mirror
        return data[where], None if valid is None else valid[where]

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
    so ``RemoteFetchOp``, the one row operator over a batch child, can
    drain it without knowing about batches. The executor drains the
    plan root's ``batches()`` into value tuples itself.
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


class RowSourceAdapterOp(VectorOp):
    """Decay adapter: re-batch a row operator's output.

    Wraps ``RemoteFetchOp``, the one operator that only exists in row
    form. The wrapped operator does its own row accounting; this
    adapter only columnarizes.
    """

    def __init__(self, counters: ExecCounters, row_op: Any) -> None:
        super().__init__(counters)
        self.row_op = row_op

    def batches(self) -> Iterator[Batch]:
        buffer: list[dict[str, Any]] = []
        for record in self.row_op.rows():
            buffer.append(record)
            if len(buffer) >= BATCH_SIZE:
                yield self._emit(batch_from_rows(buffer))
                buffer = []
        if buffer:
            yield self._emit(batch_from_rows(buffer))


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
        if isinstance(selected, range):
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

    def _batches_of(self, positions) -> Iterator[Batch]:
        size = BATCH_SIZE
        for start in range(0, len(positions), size):
            batch = self._scan_chunk(positions[start:start + size])
            if batch is not None:
                yield self._emit(batch)


class VecScanOp(_VecScanBase):
    """Read one table through its plan's access path, from the column
    store: every live position for a full scan, else ``positions_of``
    the row ids the index probes return (the same probes, in the same
    order, as the row engine's :class:`ScanOp`)."""

    def __init__(self, counters: ExecCounters, table, node: LogicalScan,
                 columns: tuple[str, ...] | None = None) -> None:
        super().__init__(counters, table.column_store(), node.residual,
                         columns)
        self.probes, membership = resolve_access(table, node)
        if membership is not None:
            column, keys = membership
            self.tests = ((column, keys.__contains__, None, None),
                          *self.tests)

    def batches(self) -> Iterator[Batch]:
        if self.probes is None:
            yield from self._batches_of(self.store.live_positions())
            return
        if len(self.probes) == 1:  # no copy: big ranges would lift peak RSS
            self.counters.index_probes += 1
            row_ids = self.probes[0]()
        else:
            row_ids = []
            for probe in self.probes:
                self.counters.index_probes += 1
                row_ids += probe()
        yield from self._batches_of(self.store.positions_of(row_ids))


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
            yield self._emit(Batch(self.columns, projected,
                                   len(batch), batch.source))


class VecHashAggregateOp(VectorOp):
    """Grouped/scalar aggregation folding column slices per batch."""

    def __init__(self, counters: ExecCounters, child,
                 aggregates: tuple[AggregateSpec, ...],
                 group_by: str | None = None) -> None:
        super().__init__(counters)
        self.child = child
        self.aggregates = aggregates
        self.group_by = group_by

    def batches(self) -> Iterator[Batch]:
        groups: dict[Any, dict[str, _AggState]] = {}
        saw_rows = False
        # inf + -inf is NaN and 1e308 + 1e308 is inf for ``total += v``
        # too, but without a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            for batch in self.child.batches():
                if not len(batch):
                    continue
                saw_rows = True
                if self.group_by is None:
                    self._fold_scalar(groups, batch)
                else:
                    self._fold_grouped(groups, batch)
        if not saw_rows and self.group_by is None:
            # Scalar aggregate over an empty input still yields one row.
            groups[None] = {
                agg.output_name: _AggState() for agg in self.aggregates
            }
        out_rows = []
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
            out_rows.append(out)
        if out_rows:
            yield self._emit(batch_from_rows(out_rows))

    def _fold_scalar(self, groups, batch: Batch) -> None:
        states = groups.setdefault(None, {
            agg.output_name: _AggState() for agg in self.aggregates
        })
        for agg in self.aggregates:
            state = states[agg.output_name]
            if agg.column == "*":
                state.count += len(batch)
                continue
            values = batch.values(agg.column)
            typed = batch.typed(agg.column)
            if typed is None:
                state.fold_many(values)
            else:
                fold_typed(state, values, *typed)

    def _fold_grouped(self, groups, batch: Batch) -> None:
        """Encode the keys once (each row's code is the batch position
        of its key's first row), then fold each group's rows, in scan
        order, as one slice per aggregate."""
        keys = batch.values(self.group_by)
        first: dict[Any, int] = {}
        codes = np.fromiter(map(first.setdefault, keys, count()),
                            dtype=np.intp, count=len(keys))
        if len(first) == 1:
            members = [np.arange(len(keys))]
        else:
            order = np.argsort(codes, kind="stable")
            edges = np.flatnonzero(np.diff(codes[order])) + 1
            members = np.split(order, edges)
        folds = []
        for agg in self.aggregates:
            if agg.column == "*":
                folds.append((agg.output_name, None, None))
            else:
                folds.append((agg.output_name, batch.values(agg.column),
                              batch.typed(agg.column)))
        for rows in members:
            key = keys[rows[0]]
            states = groups.get(key)
            if states is None:
                states = groups[key] = {
                    agg.output_name: _AggState() for agg in self.aggregates
                }
            for name, values, typed in folds:
                state = states[name]
                if values is None:
                    state.count += len(rows)
                elif typed is None:
                    state.fold_many([values[i] for i in rows.tolist()])
                else:
                    data, valid = typed
                    fold_typed(state, values, data[rows],
                               None if valid is None else valid[rows],
                               rows)


def fold_typed(state: _AggState, values: list[Any], data: np.ndarray,
               valid: np.ndarray | None,
               rows: np.ndarray | None = None) -> None:
    """``state.fold_many`` over typed data, with the same answer.

    ``data``/``valid`` are the mirrored slice of the rows folded;
    ``rows`` maps an entry of ``data`` to its index in ``values`` (the
    list the batch gathered; None when they align). NULLs are skipped.
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
    """Batch equi-join; buckets of build positions, probed per batch.

    Merged rows replicate the row engine's ``{**build, **probe}``:
    build columns first, probe-only columns appended, and a column
    present on both sides takes the probe value.
    """

    def __init__(self, counters: ExecCounters, build, probe,
                 key: str) -> None:
        super().__init__(counters)
        self.build = build
        self.probe = probe
        self.key = key

    def batches(self) -> Iterator[Batch]:
        build = self._materialize(self.build)
        buckets: dict[Any, list[int]] = {}
        build_keys = build.values(self.key)
        for position, key in enumerate(build_keys):
            buckets.setdefault(key, []).append(position)
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
    ``RowLowering``). Plans holding a node with no batch form never get
    here: ``choose_engine`` sends them to the row engine."""

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
        if isinstance(node, LogicalJoin):
            left = self._to_vector(node.left, stats)
            right = self._to_vector(node.right, stats)
            if rows_estimate(node.left) <= rows_estimate(node.right):
                return VecHashJoinOp(self.counters, build=left,
                                     probe=right, key=node.key)
            return VecHashJoinOp(self.counters, build=right,
                                 probe=left, key=node.key)
        if isinstance(node, LogicalAggregate):
            child = self._to_vector(node.child, stats)
            return VecHashAggregateOp(self.counters, child,
                                      node.aggregates, node.group_by)
        if isinstance(node, LogicalHaving):
            child = self._to_vector(node.child, stats)
            return VecFilterOp(self.counters, child, node.conditions)
        if isinstance(node, LogicalProject):
            child = self._to_vector(node.child, stats)
            remote = tuple(c for c in node.columns
                           if c in REMOTE_DETAIL_COLUMNS)
            if remote:
                # RemoteFetchOp has no batch form: drain the child as
                # rows through it, then re-batch its enriched output.
                fetch = self.engine._remote_fetch_op(
                    remote, child, self.counters,
                    self.deadline, self.statuses)
                child = RowSourceAdapterOp(self.counters, fetch)
            return VecProjectOp(self.counters, child, node.columns)
        if isinstance(node, LogicalOrder):
            child = self._to_vector(node.child, stats)
            if node.limit is not None:
                return VecTopKOp(self.counters, child, node.order_by,
                                 node.limit)
            return VecSortOp(self.counters, child, node.order_by)
        if isinstance(node, LogicalLimit):
            child = self._to_vector(node.child, stats)
            return VecLimitOp(self.counters, child, node.limit)
        raise PlanError(f"cannot lower {type(node).__name__}")

    def _scan_op(self, node: LogicalScan, stats=None) -> VectorOp:
        table = self.engine.drugtree.tables[node.table]
        if node.access == "index_order":
            return IndexOrderScanOp(self.counters, table, node, self.needed,
                                    stats)
        return VecScanOp(self.counters, table, node, self.needed)
