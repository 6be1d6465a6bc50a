"""Typed column catalog for the DTQL semantic analyzer.

The catalog is the analyzer's view of the star schema: every overlay
column with its :class:`~repro.storage.schema.ColumnType` and which
tables carry it, plus the federation-resolved detail columns (no
type). It reads the query model's own column registry
(:data:`~repro.core.query.ast.COLUMN_OWNERS`, built from the overlay
:class:`Schema` objects the storage layer validates rows against), so
the analyzer can never drift from what the executor will accept.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.core.overlay import BINDINGS_TABLE, LIGANDS_TABLE, PROTEINS_TABLE
from repro.core.query.ast import (
    COLUMN_OWNERS,
    COLUMN_TYPES,
    REMOTE_DETAIL_COLUMNS,
)
from repro.storage.schema import ColumnType


@dataclass(frozen=True)
class ColumnInfo:
    """What the analyzer knows about one addressable column."""

    name: str
    #: None for remote detail columns — their payload shape is decided
    #: by the backing source, not the overlay schema.
    type: ColumnType | None
    tables: tuple[str, ...]


def _levenshtein(a: str, b: str, cap: int) -> int:
    """Edit distance, abandoned (returns cap+1) once it exceeds *cap*."""
    if abs(len(a) - len(b)) > cap:
        return cap + 1
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        best = i
        for j, cb in enumerate(b, start=1):
            cost = min(
                previous[j] + 1,
                current[j - 1] + 1,
                previous[j - 1] + (ca != cb),
            )
            current.append(cost)
            best = min(best, cost)
        if best > cap:
            return cap + 1
        previous = current
    return previous[-1]


def _closest(name: str, candidates: Iterable[str],
             limit: int) -> tuple[str, ...]:
    """The *candidates* within edit distance ``len(name) // 3`` (at
    least 1) of a misspelt *name*, nearest first."""
    cap = max(1, len(name) // 3)
    scored = []
    for candidate in candidates:
        distance = _levenshtein(name.lower(), candidate.lower(), cap)
        if distance <= cap:
            scored.append((distance, candidate))
    scored.sort()
    return tuple(candidate for _, candidate in scored[:limit])


class Catalog:
    """Name → :class:`ColumnInfo` lookup with did-you-mean support."""

    def __init__(self, columns: dict[str, ColumnInfo],
                 tables: tuple[str, ...]) -> None:
        self._columns = dict(columns)
        self.tables = tables

    @classmethod
    def default(cls) -> "Catalog":
        """The catalog for the three overlay tables + remote details."""
        columns = {name: ColumnInfo(name, COLUMN_TYPES[name], owners)
                   for name, owners in COLUMN_OWNERS.items()}
        for name, (_, _, owner) in REMOTE_DETAIL_COLUMNS.items():
            columns[name] = ColumnInfo(name, None, (owner,))
        return cls(columns, (BINDINGS_TABLE, PROTEINS_TABLE, LIGANDS_TABLE))

    def get(self, name: str) -> ColumnInfo | None:
        return self._columns.get(name)

    def column_type(self, name: str) -> ColumnType | None:
        info = self._columns.get(name)
        return info.type if info is not None else None

    def suggest(self, name: str, table: bool = False,
                limit: int = 3) -> tuple[str, ...]:
        """Closest known column (or, with *table*, table) names to a
        misspelt *name*."""
        return _closest(name, self.tables if table else self._columns,
                        limit)

    def aggregate_output_type(self, output_name: str) -> ColumnType | None:
        """Type of an aggregate output column like ``mean_p_affinity``.

        ``count_*`` is INT, ``sum_``/``mean_`` are FLOAT, ``min_``/
        ``max_`` carry the underlying column type. Returns None when the
        name does not decompose into a known aggregate over a known
        column (including the group-by passthrough case, which callers
        resolve via :meth:`column_type` directly).
        """
        for prefix in ("count_", "sum_", "mean_", "min_", "max_"):
            if not output_name.startswith(prefix):
                continue
            column = output_name[len(prefix):]
            if prefix == "count_":
                if column == "all" or column in self._columns:
                    return ColumnType.INT
                return None
            info = self._columns.get(column)
            if info is None or info.type is None:
                return None
            if prefix in ("sum_", "mean_"):
                return ColumnType.FLOAT
            return info.type
        return None
