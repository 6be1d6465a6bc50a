"""Cost model for plan comparison.

Unit-free abstract costs, calibrated so that the relative ordering of
plans matches observed executor behaviour: sequential row visits cost 1,
index probes cost a small constant plus per-match work, hash joins pay
build+probe, sorts pay ``n log n``. Only *relative* cost matters — the
planner uses these numbers solely to rank alternatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SEQ_ROW_COST = 1.0
INDEX_PROBE_COST = 4.0
INDEX_MATCH_COST = 2.0  # random access: dearer than sequential
FILTER_ROW_COST = 0.25
HASH_BUILD_ROW_COST = 1.2
HASH_PROBE_ROW_COST = 0.9
SORT_ROW_FACTOR = 0.8
AGGREGATE_ROW_COST = 0.5
TOPK_ROW_COST = 0.4


@dataclass(frozen=True)
class Cost:
    """Total abstract cost with its dominant components, for EXPLAIN."""

    total: float
    detail: str = ""

    def __add__(self, other: "Cost") -> "Cost":
        detail = "; ".join(part for part in (self.detail, other.detail)
                           if part)
        return Cost(self.total + other.total, detail)

    def __lt__(self, other: "Cost") -> bool:
        return self.total < other.total


def seq_scan_cost(table_rows: float, residual_predicates: int) -> Cost:
    total = table_rows * (SEQ_ROW_COST
                          + FILTER_ROW_COST * residual_predicates)
    return Cost(total, f"seqscan {table_rows:.0f} rows")


def index_eq_cost(matching_rows: float, residual_predicates: int) -> Cost:
    total = (INDEX_PROBE_COST
             + matching_rows * (INDEX_MATCH_COST
                                + FILTER_ROW_COST * residual_predicates))
    return Cost(total, f"index probe ~{matching_rows:.0f} matches")


def index_range_cost(matching_rows: float,
                     residual_predicates: int) -> Cost:
    total = (INDEX_PROBE_COST
             + matching_rows * (INDEX_MATCH_COST
                                + FILTER_ROW_COST * residual_predicates))
    return Cost(total, f"index range ~{matching_rows:.0f} matches")


def index_order_cost(walked: float, residual_predicates: int) -> Cost:
    """An ordered walk pays per index entry touched before it stops."""
    total = index_range_cost(walked, residual_predicates).total
    return Cost(total, f"index walk ~{walked:.0f} entries")


def key_set_cost(key_count: float, matching_rows: float,
                 residual_predicates: int) -> Cost:
    total = (INDEX_PROBE_COST * max(math.log2(key_count + 1), 1.0)
             + matching_rows * (INDEX_MATCH_COST
                                + FILTER_ROW_COST * residual_predicates))
    return Cost(total, f"key-set scan ~{matching_rows:.0f} matches")


def hash_join_cost(build_rows: float, probe_rows: float,
                   output_rows: float) -> Cost:
    total = (build_rows * HASH_BUILD_ROW_COST
             + probe_rows * HASH_PROBE_ROW_COST
             + output_rows * 0.1)
    return Cost(total, f"hash join {build_rows:.0f}x{probe_rows:.0f}")


def sort_cost(rows: float) -> Cost:
    effective = max(rows, 2.0)
    return Cost(effective * math.log2(effective) * SORT_ROW_FACTOR,
                f"sort {rows:.0f} rows")


def topk_cost(rows: float, k: int) -> Cost:
    effective_k = max(k, 2)
    return Cost(rows * TOPK_ROW_COST * math.log2(effective_k),
                f"top-{k} over {rows:.0f} rows")


def aggregate_cost(rows: float) -> Cost:
    return Cost(rows * AGGREGATE_ROW_COST, f"aggregate {rows:.0f} rows")
