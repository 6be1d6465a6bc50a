"""Table statistics for cardinality estimation.

An ``ANALYZE``-style pass over a table collects per-column row counts,
distinct-value counts, min/max, most-common values and an equi-depth
histogram. The optimizer's cardinality estimator
(:mod:`repro.core.query.cards`) consumes these to choose access paths
and join orders. Re-ANALYZE of a growing table keeps its counts
(:class:`TableCounts`) and counts only the rows appended since.
"""

from __future__ import annotations

import bisect
import heapq
import threading
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, islice
from typing import Any

from repro.errors import StorageError
from repro.obs import get_metrics
from repro.storage.table import Table

DEFAULT_HISTOGRAM_BUCKETS = 64
DEFAULT_MCV_COUNT = 12


@dataclass(frozen=True)
class Histogram:
    """Equi-depth histogram over a numeric column.

    ``bounds`` are the bucket upper edges (ascending); each bucket holds
    roughly the same number of rows.
    """

    bounds: tuple[float, ...]
    total: int

    def selectivity_below(self, value: float,
                          inclusive: bool = True) -> float:
        """Estimated fraction of rows with column <= value (or <)."""
        if not self.bounds or self.total == 0:
            return 0.5
        if inclusive:
            position = bisect.bisect_right(self.bounds, value)
        else:
            position = bisect.bisect_left(self.bounds, value)
        return min(1.0, position / len(self.bounds))

    def selectivity_range(self, low: float | None, high: float | None,
                          include_low: bool = True,
                          include_high: bool = True) -> float:
        upper = (self.selectivity_below(high, include_high)
                 if high is not None else 1.0)
        lower = (self.selectivity_below(low, not include_low)
                 if low is not None else 0.0)
        return max(0.0, upper - lower)


@dataclass(frozen=True)
class ColumnStatistics:
    """Statistics of one column."""

    name: str
    row_count: int
    null_count: int
    distinct_count: int
    min_value: Any = None
    max_value: Any = None
    most_common: tuple[tuple[Any, int], ...] = field(default_factory=tuple)
    histogram: Histogram | None = None

    def equality_selectivity(self, value: Any) -> float:
        """Estimated fraction of rows equal to *value*."""
        if self.row_count == 0:
            return 0.0
        for candidate, count in self.most_common:
            if candidate == value:
                return count / self.row_count
        if self.distinct_count <= 0:
            return 1.0 / self.row_count
        # Mass not covered by the MCV list, spread over remaining values.
        mcv_rows = sum(count for _, count in self.most_common)
        remaining_rows = max(self.row_count - self.null_count - mcv_rows, 0)
        remaining_values = max(self.distinct_count - len(self.most_common), 1)
        return max(remaining_rows / remaining_values / self.row_count,
                   1.0 / (10 * max(self.row_count, 1)))

    def range_selectivity(self, low: Any = None, high: Any = None,
                          include_low: bool = True,
                          include_high: bool = True) -> float:
        if self.histogram is not None:
            return self.histogram.selectivity_range(
                low, high, include_low, include_high,
            )
        # No histogram (non-numeric column): fall back to a fixed guess.
        return 0.33


@dataclass(frozen=True)
class TableStatistics:
    """Statistics of a whole table, keyed by column name."""

    table_name: str
    row_count: int
    columns: dict[str, ColumnStatistics]

    def column(self, name: str) -> ColumnStatistics:
        try:
            return self.columns[name]
        except KeyError:
            raise StorageError(
                f"no statistics for column {name!r} of "
                f"table {self.table_name!r}"
            ) from None


class TableCounts:
    """What ANALYZE has counted of one table so far: per column, a
    :class:`~collections.Counter` of the non-null values, the null count
    and the value types seen (a counter merges ``1``, ``1.0`` and
    ``True`` into one key), plus how many rows it has counted.

    Tables only append, so a count of the first *n* rows updated with
    the rows after *n* equals a count of all rows, down to each value's
    first appearance: statistics built from kept counts are identical
    to a full pass. The lock makes concurrent readers count a row once.
    """

    def __init__(self, width: int) -> None:
        self.rows = 0
        self._values = [Counter() for _ in range(width)]
        self._nulls = [0] * width
        self._kinds: list[set[type]] = [set() for _ in range(width)]
        self._lock = threading.Lock()

    def analyze(self, table: Table, histogram_buckets: int,
                mcv_count: int) -> tuple[TableStatistics, int]:
        """Count the rows of *table* past those counted so far, read
        from one snapshot; the statistics of every row counted, and how
        many rows this call counted."""
        with self._lock:
            fresh = tuple(islice(table.scan_rows(), self.rows, None))
            for position, values in enumerate(zip(*fresh)):
                self._values[position].update(values)
                self._nulls[position] += self._values[position].pop(None, 0)
                self._kinds[position].update(map(type, values))
            self.rows += len(fresh)
            columns = {
                column.name: _column_statistics(
                    column.name, self.rows, counts, nulls, kinds,
                    histogram_buckets, mcv_count)
                for column, counts, nulls, kinds in zip(
                    table.schema.columns, self._values, self._nulls,
                    self._kinds)
            }
            return TableStatistics(table.name, self.rows, columns), \
                len(fresh)


def analyze(table: Table,
            histogram_buckets: int = DEFAULT_HISTOGRAM_BUCKETS,
            mcv_count: int = DEFAULT_MCV_COUNT,
            counts: TableCounts | None = None) -> TableStatistics:
    """Collect statistics for every column of *table*.

    One pass transposes the rows into columns; each column is then
    counted once (:class:`~collections.Counter`), and min, max, the
    most-common values and the histogram all come from its distinct
    values and their counts, not from the rows again. With *counts*,
    the :class:`TableCounts` kept for *table*, only the rows it has not
    counted yet are read, and the ``stats.rows_counted`` counter says
    how many (re-ANALYZE); without, every row is, and nothing is kept.
    """
    if histogram_buckets < 1:
        raise StorageError("need at least one histogram bucket")
    if counts is None:
        return TableCounts(len(table.schema.columns)).analyze(
            table, histogram_buckets, mcv_count)[0]
    stats, counted = counts.analyze(table, histogram_buckets, mcv_count)
    get_metrics().counter("stats.rows_counted").inc(counted)
    return stats


def _column_statistics(name: str, row_count: int, counts: Counter,
                       nulls: int, kinds: set[type], histogram_buckets: int,
                       mcv_count: int) -> ColumnStatistics:
    numeric = counts and all(
        issubclass(kind, (int, float)) and not issubclass(kind, bool)
        for kind in kinds - {type(None)}
    )
    return ColumnStatistics(
        name=name,
        row_count=row_count,
        null_count=nulls,
        distinct_count=len(counts),
        min_value=min(counts) if counts else None,
        max_value=max(counts) if counts else None,
        most_common=_most_common(counts, mcv_count),
        histogram=(_equi_depth(counts, histogram_buckets)
                   if numeric else None),
    )


def _most_common(counts: Counter, limit: int) -> tuple[tuple[Any, int], ...]:
    """The *limit* highest counts, ties broken by ``str(value)`` and
    then by first appearance. Only the values whose count reaches the
    *limit*-th highest are ranked (and passed to ``str``), not every
    distinct value of the column."""
    if limit <= 0 or not counts:
        return ()
    cut = heapq.nlargest(limit, counts.values())[-1]
    above = sorted((item for item in counts.items() if item[1] > cut),
                   key=lambda item: (-item[1], str(item[0])))
    tied = [item for item in counts.items() if item[1] == cut]
    return tuple(above + heapq.nsmallest(limit - len(above), tied,
                                         key=lambda item: str(item[0])))


def _equi_depth(counts: Counter, buckets: int) -> Histogram:
    """Equi-depth bounds over the values *counts* counts: the value at
    each bucket's last sorted position, found on cumulative counts."""
    total = sum(counts.values())
    if total == 0:
        return Histogram((), 0)
    values = sorted(counts)
    cumulative = list(accumulate(counts[value] for value in values))
    buckets = min(buckets, total)
    bounds = []
    for bucket in range(1, buckets + 1):
        position = min(total - 1, round(bucket * total / buckets) - 1)
        bounds.append(float(values[bisect.bisect_right(cumulative,
                                                       position)]))
    return Histogram(tuple(bounds), total)
