"""Cardinality estimation from the live tables' indexes.

The indexes :meth:`~repro.core.drugtree.DrugTree.create_default_indexes`
keeps current on every insert are the optimizer's catalog: a hash
bucket's length is an exact equality count, a sorted index counts any
band with two bisects, and the number of non-NULL hash buckets is a
join key's distinct count. A bool column no index serves has the
table's value counts, kept on insert the same way. A predicate on a
column with neither gets :data:`DEFAULT_SELECTIVITY`; several
predicates multiply under the independence assumption, and an
equi-join is ``|L| * |R| / max(ndv)``. Nothing is collected ahead of
a query, so nothing goes stale.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from typing import Any

from repro.core.query.ast import RANGE_OPS, Band, Comparison, range_bounds
from repro.storage.index import HashIndex, SortedIndex
from repro.storage.table import Table

#: Selectivity assumed of a predicate nothing counts.
DEFAULT_SELECTIVITY = 0.33
#: Floor preventing zero estimates from wiping out join products.
MIN_ROWS = 0.5


class CardinalityEstimator:
    """Estimates row counts for scans and joins of the overlay tables,
    reading their indexes and row counts at the moment it is asked and
    no row."""

    def __init__(self, tables: Mapping[str, Table]) -> None:
        self._tables = tables

    def table_rows(self, table: str) -> float:
        return float(self._tables[table].row_count)

    def scan_rows(self, table: str,
                  predicates: tuple[Comparison, ...]) -> float:
        """Estimated output of scanning *table* under *predicates*: the
        product of their :meth:`terms`."""
        return self.rows_under(table, [count for _, count in
                                       self.terms(table, predicates)])

    def terms(self, table: str, predicates: tuple[Comparison, ...],
              ) -> list[tuple[tuple[Comparison, ...], int | None]]:
        """The factors of a scan's estimate, each with the rows it keeps
        alone (``None`` when nothing counts its column): every ``=``,
        ``!=`` or ``IN`` predicate alone, in predicate order, then each
        column's range bounds as one band, in order of the column's
        first bound.

        A band is counted as one term — multiplying ``x >= 5`` and
        ``x < 6`` separately would square-count the column (the
        dominant error for interval-labeling subtree predicates, which
        always arrive as a bound pair).
        """
        terms = [((predicate,), self._matches(table, predicate))
                 for predicate in predicates
                 if predicate.op not in RANGE_OPS]
        terms.extend((tuple(bounds), self._band_matches(table, column,
                                                        bounds))
                     for column, bounds in range_bounds(predicates).items())
        return terms

    def rows_under(self, table: str,
                   counts: Iterable[int | None]) -> float:
        """*table*'s rows times each term count's share of them (an
        uncounted term keeps :data:`DEFAULT_SELECTIVITY`), multiplied
        under the independence assumption."""
        rows = self.table_rows(table)
        if not rows:
            return MIN_ROWS
        estimate = rows
        for count in counts:
            if count is None:
                estimate *= DEFAULT_SELECTIVITY
            else:
                estimate = estimate * count / rows
        return max(estimate, MIN_ROWS)

    def _matches(self, table: str, predicate: Comparison) -> int | None:
        """Rows an ``=``, ``!=`` or ``IN`` predicate keeps (NULL never
        matches), or ``None`` when nothing counts its column."""
        live = self._tables[table]
        equal = _equality_count(live, predicate.column)
        if equal is None:
            return None
        values = (set(predicate.value) if predicate.op == "in"
                  else {predicate.value})
        values.discard(None)
        matching = sum(map(equal, values))
        if predicate.op == "!=":
            return live.row_count - equal(None) - matching
        return matching

    def _band_matches(self, table: str, column: str,
                      bounds: list[Comparison]) -> int | None:
        index = self._tables[table].index_on(column, require_range=True)
        if index is None:
            return None
        return index.count(*Band.of(bounds))

    def join_rows(self, left_rows: float, right_rows: float,
                  left_table: str, right_table: str, key: str) -> float:
        """Equi-join estimate via the containment assumption."""
        ndv_left = self.distinct(left_table, key)
        ndv_right = self.distinct(right_table, key)
        denominator = max(ndv_left, ndv_right, 1.0)
        return max(left_rows * right_rows / denominator, MIN_ROWS)

    def distinct(self, table: str, column: str) -> float:
        """Distinct non-NULL values of *column*, from a hash index on it
        (1 when none is kept)."""
        for index in self._tables[table].indexes().values():
            if (isinstance(index, HashIndex)
                    and index.column_names == (column,)):
                return float(index.distinct())
        return 1.0


def _equality_count(table: Table,
                    column: str) -> Callable[[Any], int] | None:
    """How many rows of *table* hold a given value of *column* (``None``:
    how many hold NULL), from an index on it or its value counts, or
    ``None`` when neither is kept."""
    index = table.index_on(column)
    if isinstance(index, HashIndex):
        return index.count
    if isinstance(index, SortedIndex):
        return lambda key: (index.null_count() if key is None
                            else index.count(key, key))
    counts = table.value_counts(column)
    if counts is None:
        return None
    return lambda key: counts.get(key, 0)
