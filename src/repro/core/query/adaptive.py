"""The row rule: which engine runs an optimized logical plan.

Every plan runs on the batch engine (:mod:`repro.core.query.vectorized`)
unless it contains a node that has no batch form — the materialized
clade fast path or a nested-loop join — in which case the whole plan
runs on the row engine. The perf ledger found no
plan shape where a priced choice beat this rule, so there is no cost
model and nothing to memoize: one walk over a handful of nodes per
planned query. The reason for a row choice is surfaced in EXPLAIN
ANALYZE's ``-- execution:`` trailer.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.core.query.logical import (
    LogicalCladeAggregate,
    LogicalJoin,
    LogicalNode,
)


class EngineChoice(NamedTuple):
    """The engine one plan runs on, and why when the rule said row."""

    mode: str  # "row" | "vectorized"
    reason: str | None = None


_VECTORIZED = EngineChoice("vectorized")


def _row_only_reason(node: LogicalNode) -> str | None:
    if isinstance(node, LogicalCladeAggregate):
        return "materialized clade fast path"
    if isinstance(node, LogicalJoin) and node.method == "nested_loop":
        return "nested-loop join has no batch form"
    for child in node.children():
        reason = _row_only_reason(child)
        if reason is not None:
            return reason
    return None


def choose_engine(node: LogicalNode) -> EngineChoice:
    """Row, with the reason, iff *node* holds a node with no batch
    form; vectorized otherwise."""
    reason = _row_only_reason(node)
    if reason is None:
        return _VECTORIZED
    return EngineChoice("row", reason)
