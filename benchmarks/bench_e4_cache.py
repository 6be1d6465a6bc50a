"""E4 — semantic cache effectiveness vs session locality.

Navigation sessions re-ask and narrow earlier queries; the semantic
cache serves narrowings by subsumption. The revisit probability of the
session generator is the locality knob.

Expected shape: hit rate rises monotonically-ish with locality; cached
answers are far cheaper than executed ones; with the cache disabled,
per-query cost is flat regardless of locality.
"""

from __future__ import annotations

import json

from repro.core import EngineConfig, QueryEngine
from repro.workloads import QueryGenerator, TextTable, mean, time_wall

LOCALITIES = (0.0, 0.3, 0.6, 0.9)
SESSION_STEPS = 10
SESSIONS_PER_POINT = 4


def _sessions(dataset, revisit_probability: float):
    generator = QueryGenerator(dataset.family, dataset.ligands,
                               seed=int(revisit_probability * 100))
    queries = []
    for _ in range(SESSIONS_PER_POINT):
        queries.extend(generator.navigation_session(
            steps=SESSION_STEPS,
            revisit_probability=revisit_probability,
        ))
    return queries


def _measure(engine, queries):
    wall = []
    hits = 0
    for query in queries:
        result, elapsed = time_wall(lambda: engine.execute(query))
        wall.append(elapsed)
        if result.cache_outcome in ("exact", "subsumed"):
            hits += 1
    return mean(wall) * 1000, hits / len(queries)


def test_e4_cache_vs_locality(benchmark, world_medium, report,
                              bench_metrics):
    dataset = world_medium
    drugtree = dataset.drugtree()

    def sweep():
        rows = []
        for locality in LOCALITIES:
            queries = _sessions(dataset, locality)
            cached_engine = QueryEngine(drugtree, EngineConfig())
            uncached_engine = QueryEngine(
                drugtree, EngineConfig(use_semantic_cache=False),
            )
            cached_ms, hit_rate = _measure(cached_engine, queries)
            uncached_ms, _ = _measure(uncached_engine, queries)
            rows.append((locality, hit_rate, cached_ms, uncached_ms))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = TextTable(
        ["revisit prob", "hit rate", "cached ms/query",
         "uncached ms/query"],
        title="E4  semantic cache vs session locality "
              "(drill-down sessions)",
    )
    for row in rows:
        table.add_row(*row)
    report(table)

    hit_rates = [row[1] for row in rows]
    # Even zero-revisit sessions hit via subsumption (they narrow), but
    # high-locality sessions must hit much more.
    assert hit_rates[-1] > hit_rates[0]
    assert hit_rates[-1] > 0.5
    # Cached execution stays in the same band as uncached at moderate
    # locality and wins at high locality. The uncached baseline runs
    # compiled-predicate scans (see docs/EXECUTION.md), so at small
    # per-query cost the cache's subsumption probing can be a modest
    # constant slower before hits amortize it. Every hit builds fresh
    # row dicts, so a hit is cheaper than an execution, not free
    # (EXPERIMENTS.md E4).
    for _, hit_rate, cached_ms, uncached_ms in rows:
        if hit_rate > 0.3:
            assert cached_ms <= uncached_ms * 1.6
    _, _, cached_high, uncached_high = rows[-1]
    assert cached_high < uncached_high

    # Emit the observability counters behind the table: the semantic
    # cache's own accounting, straight from the metrics registry, which
    # the session hook also persists to BENCH_METRICS.json.
    snapshot = bench_metrics.snapshot()
    assert snapshot == json.loads(json.dumps(snapshot))
    obs_table = TextTable(
        ["metric", "value"],
        title="E4  metrics registry: semantic cache counters",
    )
    for name, value in sorted(snapshot["counters"].items()):
        if name.startswith("semantic_cache."):
            obs_table.add_row(name, value)
    report(obs_table)


def test_e4_cache_hit_wall_time(benchmark, world_medium):
    """pytest-benchmark numbers for a pure cache hit."""
    drugtree = world_medium.drugtree()
    engine = QueryEngine(drugtree)
    text = "SELECT * FROM bindings WHERE p_affinity >= 7.0"
    engine.execute(text)  # warm

    def hit():
        result = engine.execute(text)
        assert result.cache_outcome == "exact"
        return result

    benchmark(hit)
