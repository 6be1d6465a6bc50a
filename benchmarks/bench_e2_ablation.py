"""E2 — ablation of each optimization mechanism.

Operationalises "applies standards as well as uses novel mechanisms":
the same workload runs with the full engine and with one mechanism
disabled at a time, measuring wall time and rows touched.

Expected shape: every mechanism contributes; disabling interval
labeling hurts subtree queries most (IN-list instead of range scan),
disabling materialized aggregates hurts clade aggregates most,
disabling indexes hurts selective filters, disabling the semantic cache
hurts repeated/narrowing sessions.
"""

from __future__ import annotations

import time

from repro.core import EngineConfig, QueryEngine
from repro.workloads import QueryGenerator, TextTable, mean

CONFIGS = [
    ("full engine", EngineConfig()),
    ("no indexes", EngineConfig(use_indexes=False)),
    ("no interval labeling", EngineConfig(use_interval_labeling=False)),
    ("no materialized aggs", EngineConfig(
        use_materialized_aggregates=False)),
    ("no semantic cache", EngineConfig(use_semantic_cache=False)),
    ("nothing (all off)", EngineConfig(
        use_indexes=False, use_interval_labeling=False,
        use_materialized_aggregates=False, use_semantic_cache=False,
    )),
]


def _session_workload(dataset):
    """Navigation sessions (cache-friendly) plus one-off selective
    filters (index/labeling-sensitive) — exercises every mechanism."""
    generator = QueryGenerator(dataset.family, dataset.ligands, seed=9)
    queries = []
    for _ in range(3):
        queries.extend(generator.navigation_session(
            steps=6, revisit_probability=0.4,
        ))
    for _ in range(8):
        queries.append(generator.draw("subtree_filter"))
        queries.append(generator.draw("organism_filter"))
    return queries


def test_e2_mechanism_ablation(benchmark, world_medium, report):
    dataset = world_medium
    drugtree = dataset.drugtree()
    queries = _session_workload(dataset)

    def sweep():
        rows = []
        for label, config in CONFIGS:
            engine = QueryEngine(drugtree, config)
            wall = []
            scanned = 0
            cache_hits = 0
            for query in queries:
                started = time.perf_counter()
                result = engine.execute(query)
                wall.append(time.perf_counter() - started)
                scanned += result.counters.get("rows_scanned", 0)
                if result.cache_outcome == "exact":
                    cache_hits += 1
            rows.append((label, mean(wall) * 1000, scanned,
                         cache_hits, len(queries)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = TextTable(
        ["configuration", "mean wall ms/query", "rows scanned",
         "cache hits", "queries"],
        title="E2  ablation: one mechanism disabled at a time "
              f"({world_medium.config.n_leaves}-leaf tree)",
    )
    for row in rows:
        table.add_row(*row)
    report(table)

    by_label = {row[0]: row for row in rows}
    full = by_label["full engine"]
    everything_off = by_label["nothing (all off)"]
    # The full engine must beat the stripped engine on both axes.
    assert full[1] < everything_off[1]
    assert full[2] < everything_off[2]
    # Disabling the cache removes all hits.
    assert by_label["no semantic cache"][3] == 0
    assert full[3] > 0
    # Disabling indexes or labeling increases rows touched.
    assert by_label["no indexes"][2] >= full[2]
    assert by_label["no interval labeling"][2] >= full[2]
