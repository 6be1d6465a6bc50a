"""Table statistics for cardinality estimation.

An ``ANALYZE``-style pass over a table collects per-column row counts,
distinct-value counts, min/max, most-common values and an equi-depth
histogram. The optimizer's cardinality estimator
(:mod:`repro.core.query.cards`) consumes these to choose access paths
and join orders.
"""

from __future__ import annotations

import bisect
import heapq
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any

from repro.errors import StorageError
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


def analyze(table: Table,
            histogram_buckets: int = DEFAULT_HISTOGRAM_BUCKETS,
            mcv_count: int = DEFAULT_MCV_COUNT) -> TableStatistics:
    """Collect statistics for every column of *table*.

    One pass transposes the rows into columns; each column is then
    counted once (:class:`~collections.Counter`), and min, max, the
    most-common values and the histogram all come from its distinct
    values and their counts, not from the rows again.
    """
    if histogram_buckets < 1:
        raise StorageError("need at least one histogram bucket")
    rows = tuple(table.scan_rows())  # one snapshot: a writer may insert
    row_count = len(rows)
    schema_columns = table.schema.columns
    cells = list(zip(*rows)) or [()] * len(schema_columns)
    columns: dict[str, ColumnStatistics] = {}
    for column, values in zip(schema_columns, cells):
        counts = Counter(values)
        non_null = len(values) - counts.pop(None, 0)
        kinds = set(map(type, values)) - {type(None)}
        numeric = counts and all(
            issubclass(kind, (int, float)) and not issubclass(kind, bool)
            for kind in kinds
        )
        columns[column.name] = ColumnStatistics(
            name=column.name,
            row_count=row_count,
            null_count=row_count - non_null,
            distinct_count=len(counts),
            min_value=min(counts) if counts else None,
            max_value=max(counts) if counts else None,
            most_common=_most_common(counts, mcv_count),
            histogram=(_equi_depth(counts, histogram_buckets)
                       if numeric else None),
        )
    return TableStatistics(table.name, row_count, columns)


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
