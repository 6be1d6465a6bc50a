"""Embedded storage layer: tables, indexes, statistics.

The integrator lands federated records in these tables; the query
optimizer plans against their indexes and statistics.
"""

from repro.storage.columnar import ColumnStore
from repro.storage.durable import (
    Database,
    DurableTableAdapter,
    StorageConfig,
)
from repro.storage.index import HashIndex, Index, SortedIndex
from repro.storage.schema import (
    Column,
    ColumnType,
    Schema,
    bool_column,
    float_column,
    int_column,
    string_column,
)
from repro.storage.statistics import (
    ColumnStatistics,
    Histogram,
    TableStatistics,
    analyze,
)
from repro.storage.table import Table

__all__ = [
    "Column",
    "ColumnStatistics",
    "ColumnStore",
    "ColumnType",
    "Database",
    "DurableTableAdapter",
    "HashIndex",
    "Histogram",
    "Index",
    "Schema",
    "SortedIndex",
    "StorageConfig",
    "Table",
    "TableStatistics",
    "analyze",
    "bool_column",
    "float_column",
    "int_column",
    "string_column",
]
