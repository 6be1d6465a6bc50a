"""Embedded storage layer: tables and their indexes.

The integrator lands federated records in these tables; the query
optimizer plans against their indexes, which also count for its
estimates.
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
from repro.storage.table import Table

__all__ = [
    "Column",
    "ColumnStore",
    "ColumnType",
    "Database",
    "DurableTableAdapter",
    "HashIndex",
    "Index",
    "Schema",
    "SortedIndex",
    "StorageConfig",
    "Table",
    "bool_column",
    "float_column",
    "int_column",
    "string_column",
]
