"""Cardinality estimation from table statistics.

Classic System-R style estimation: per-predicate selectivities from
histograms / distinct counts multiplied under an independence
assumption, and equi-join cardinality via ``|L| * |R| / max(ndv)``.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.core.query.ast import Comparison
from repro.storage.statistics import TableStatistics

#: Selectivity assumed when nothing better is known.
DEFAULT_SELECTIVITY = 0.33
#: Floor preventing zero estimates from wiping out join products.
MIN_ROWS = 0.5
#: Last-resort guess when neither statistics nor a live table exist.
FALLBACK_ROWS = 1000.0


def combine_bounds(bounds) -> tuple:
    """Tightest ``(low, high, include_low, include_high)`` interval of
    range comparisons on one column (``None`` = open end)."""
    low = high = None
    include_low = include_high = True
    for bound in bounds:
        if bound.op in (">", ">="):
            if low is None or bound.value > low:
                low = bound.value
                include_low = bound.op == ">="
        else:
            if high is None or bound.value < high:
                high = bound.value
                include_high = bound.op == "<="
    return low, high, include_low, include_high


class CardinalityEstimator:
    """Estimates row counts for scans and joins of the overlay tables.

    When a table has no collected statistics the estimator falls back
    to the live ``Table`` row count (if *tables* was provided) rather
    than a fixed guess, bumps the ``stats.missing`` counter, and
    records the table in :attr:`blind_tables` so EXPLAIN can flag the
    estimate as made blind.
    """

    def __init__(self, statistics: dict[str, TableStatistics],
                 tables: Optional[Mapping[str, object]] = None,
                 metrics=None) -> None:
        self._stats = statistics
        self._tables = tables or {}
        self._metrics = metrics
        #: Tables priced without statistics during this estimator's life.
        self.blind_tables: set[str] = set()

    def _record_blind(self, table: str) -> None:
        if table in self.blind_tables:
            return  # planning re-prices the same scan many times
        self.blind_tables.add(table)
        metrics = self._metrics
        if metrics is None:
            from repro.obs import get_metrics
            metrics = get_metrics()
        metrics.counter("stats.missing").inc()

    def table_rows(self, table: str) -> float:
        stats = self._stats.get(table)
        if stats is not None:
            return float(stats.row_count)
        self._record_blind(table)
        live = self._tables.get(table)
        if live is not None:
            return float(max(live.row_count, 1))
        return FALLBACK_ROWS

    def predicate_selectivity(self, table: str,
                              predicate: Comparison) -> float:
        stats = self._stats.get(table)
        if stats is None or predicate.column not in stats.columns:
            return DEFAULT_SELECTIVITY
        column = stats.columns[predicate.column]
        if predicate.op == "=":
            return min(1.0, column.equality_selectivity(predicate.value))
        if predicate.op == "!=":
            return max(
                0.0, 1.0 - column.equality_selectivity(predicate.value)
            )
        if predicate.op == "in":
            total = sum(
                column.equality_selectivity(value)
                for value in predicate.value
            )
            return min(1.0, total)
        if predicate.op in ("<", "<="):
            return column.range_selectivity(
                low=None, high=predicate.value,
                include_high=predicate.op == "<=",
            )
        # ">" or ">="
        return column.range_selectivity(
            low=predicate.value, high=None,
            include_low=predicate.op == ">=",
        )

    def scan_rows(self, table: str,
                  predicates: tuple[Comparison, ...]) -> float:
        """Estimated output of scanning *table* under *predicates*.

        Range bounds on the same column are combined into one joint
        band before the independence multiplication — multiplying
        ``x >= 5`` and ``x < 6`` separately would square-count the
        column's selectivity (the classic estimator mistake, and the
        dominant error for interval-labeling subtree predicates, which
        always arrive as a bound pair).
        """
        rows = self.table_rows(table)
        bands: dict[str, list[Comparison]] = {}
        for predicate in predicates:
            if predicate.op in ("<", "<=", ">", ">="):
                bands.setdefault(predicate.column, []).append(predicate)
            else:
                rows *= self.predicate_selectivity(table, predicate)
        for column, bounds in bands.items():
            rows *= self._band_selectivity(table, column, bounds)
        return max(rows, MIN_ROWS)

    def _band_selectivity(self, table: str, column: str,
                          bounds: list[Comparison]) -> float:
        if len(bounds) == 1:
            return self.predicate_selectivity(table, bounds[0])
        stats = self._stats.get(table)
        if stats is None or column not in stats.columns:
            return DEFAULT_SELECTIVITY
        low, high, include_low, include_high = combine_bounds(bounds)
        return stats.columns[column].range_selectivity(
            low=low, high=high,
            include_low=include_low, include_high=include_high,
        )

    def join_rows(self, left_rows: float, right_rows: float,
                  left_table: str, right_table: str, key: str) -> float:
        """Equi-join estimate via the containment assumption."""
        ndv_left = self._distinct(left_table, key)
        ndv_right = self._distinct(right_table, key)
        denominator = max(ndv_left, ndv_right, 1.0)
        return max(left_rows * right_rows / denominator, MIN_ROWS)

    def _distinct(self, table: str, column: str) -> float:
        stats = self._stats.get(table)
        if stats is None or column not in stats.columns:
            return 1.0
        return float(max(stats.columns[column].distinct_count, 1))
