"""Cost model for plan comparison.

Unit-free abstract costs, calibrated so that the relative ordering of
plans matches observed executor behaviour: sequential row visits cost 1,
index probes cost a small constant plus per-match work, hash joins pay
build+probe, sorts pay ``n log n``. Only *relative* cost matters — the
planner uses these numbers solely to rank alternatives.
"""

from __future__ import annotations

import math

SEQ_ROW_COST = 1.0
INDEX_PROBE_COST = 4.0
INDEX_MATCH_COST = 2.0  # random access: dearer than sequential
FILTER_ROW_COST = 0.25
HASH_BUILD_ROW_COST = 1.2
HASH_PROBE_ROW_COST = 0.9
SORT_ROW_FACTOR = 0.8
AGGREGATE_ROW_COST = 0.5
TOPK_ROW_COST = 0.4


def seq_scan_cost(table_rows: float, residual_predicates: int) -> float:
    return table_rows * (SEQ_ROW_COST
                         + FILTER_ROW_COST * residual_predicates)


def index_cost(matching_rows: float, residual_predicates: int,
               keys: float = 1) -> float:
    """Index reads: a probe per key (a key set's probes grow with the
    log of its size; one key or one band is one probe), then each
    match fetched and filtered."""
    return (INDEX_PROBE_COST * max(math.log2(keys + 1), 1.0)
            + matching_rows * (INDEX_MATCH_COST
                               + FILTER_ROW_COST * residual_predicates))


def index_order_cost(walked: float, residual_predicates: int) -> float:
    """An ordered walk pays per index entry touched before it stops."""
    return index_cost(walked, residual_predicates)


def hash_join_cost(build_rows: float, probe_rows: float,
                   output_rows: float) -> float:
    return (build_rows * HASH_BUILD_ROW_COST
            + probe_rows * HASH_PROBE_ROW_COST
            + output_rows * 0.1)


def sort_cost(rows: float) -> float:
    effective = max(rows, 2.0)
    return effective * math.log2(effective) * SORT_ROW_FACTOR


def topk_cost(rows: float, k: int) -> float:
    return rows * TOPK_ROW_COST * math.log2(max(k, 2))


def aggregate_cost(rows: float) -> float:
    return rows * AGGREGATE_ROW_COST
