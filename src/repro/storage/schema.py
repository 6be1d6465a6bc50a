"""Typed table schemas for the embedded store.

The integrator lands federated records in local tables; a
:class:`Schema` gives every table a fixed, typed column layout so the
query layer can plan against column positions instead of dict lookups.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

from repro.errors import SchemaError


class ColumnType(enum.Enum):
    """Supported column types."""

    STRING = "string"
    INT = "int"
    FLOAT = "float"
    BOOL = "bool"

    def accepts(self, value: Any) -> bool:
        if value is None:
            return True  # nullability checked separately
        if self is ColumnType.STRING:
            return isinstance(value, str)
        if self is ColumnType.INT:
            return isinstance(value, int) and not isinstance(value, bool)
        if self is ColumnType.FLOAT:
            return (isinstance(value, float)
                    or (isinstance(value, int)
                        and not isinstance(value, bool)))
        return isinstance(value, bool)

    def coerce(self, value: Any) -> Any:
        """Normalise accepted values (ints become floats in FLOAT cols)."""
        if value is None:
            return None
        if self is ColumnType.FLOAT and isinstance(value, int):
            return float(value)
        return value


#: Per column type, the type a value is stored as without a check.
_EXACT_TYPE = {ColumnType.STRING: str, ColumnType.INT: int,
               ColumnType.FLOAT: float, ColumnType.BOOL: bool}


@dataclass(frozen=True)
class Column:
    """One column of a schema."""

    name: str
    type: ColumnType
    nullable: bool = False

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"bad column name {self.name!r}")

    def check(self, value: Any) -> Any:
        """*value* as stored: nullability, ``accepts``, no NaN in a FLOAT
        column (no comparison or mean survives one), then ``coerce``."""
        if value is None:
            if not self.nullable:
                raise SchemaError(
                    f"column {self.name!r} is not nullable"
                )
            return None
        if not self.type.accepts(value):
            raise SchemaError(
                f"column {self.name!r} expects {self.type.value}, "
                f"got {type(value).__name__} ({value!r})"
            )
        if self.type is ColumnType.FLOAT and value != value:
            raise SchemaError(f"column {self.name!r} refuses NaN")
        return self.type.coerce(value)


class Schema:
    """An ordered, named set of typed columns."""

    def __init__(self, columns: list[Column]) -> None:
        if not columns:
            raise SchemaError("schema needs at least one column")
        names = [column.name for column in columns]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate column names")
        self.columns = tuple(columns)
        self._index = {column.name: i for i, column in enumerate(columns)}
        self._plan = tuple((column.name, _EXACT_TYPE[column.type], column)
                           for column in columns)
        self._floats = tuple(i for i, column in enumerate(columns)
                             if column.type is ColumnType.FLOAT)

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self):
        return iter(self.columns)

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(column.name for column in self.columns)

    def has_column(self, name: str) -> bool:
        return name in self._index

    def index_of(self, name: str) -> int:
        """Position of the named column; raises SchemaError if unknown."""
        try:
            return self._index[name]
        except KeyError:
            known = ", ".join(self.column_names)
            raise SchemaError(
                f"unknown column {name!r} (columns: {known})"
            ) from None

    def column(self, name: str) -> Column:
        return self.columns[self.index_of(name)]

    def validate_row(self, values: dict[str, Any]) -> tuple[Any, ...]:
        """Check *values* against the schema, returning an ordered tuple.

        Unknown keys, missing non-nullable columns, and type mismatches
        all raise :class:`~repro.errors.SchemaError`.
        """
        if not values.keys() <= self._index.keys():
            unknown = values.keys() - self._index.keys()
            raise SchemaError(f"unknown columns {sorted(unknown)}")
        get = values.get
        # A value of its column's exact type is taken as is; anything
        # else (None, a subclass, an int in a FLOAT column) is checked.
        row = tuple([
            value if type(value := get(name)) is exact
            else column.check(value)
            for name, exact, column in self._plan
        ])
        # A NaN is an exact float: only the FLOAT positions look again.
        for position in self._floats:
            if row[position] != row[position]:
                self.columns[position].check(row[position])
        return row

    def row_as_dict(self, row: tuple[Any, ...]) -> dict[str, Any]:
        return dict(zip(self.column_names, row))

    def project(self, names: list[str]) -> "Schema":
        """A new schema keeping only *names*, in the given order."""
        return Schema([self.column(name) for name in names])

    def __repr__(self) -> str:
        cols = ", ".join(
            f"{column.name}:{column.type.value}" for column in self.columns
        )
        return f"Schema({cols})"


def string_column(name: str, nullable: bool = False) -> Column:
    return Column(name, ColumnType.STRING, nullable)


def int_column(name: str, nullable: bool = False) -> Column:
    return Column(name, ColumnType.INT, nullable)


def float_column(name: str, nullable: bool = False) -> Column:
    return Column(name, ColumnType.FLOAT, nullable)


def bool_column(name: str, nullable: bool = False) -> Column:
    return Column(name, ColumnType.BOOL, nullable)
