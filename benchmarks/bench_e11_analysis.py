"""E11 — work saved by the semantic-analysis short-circuit (extension).

A realistic interactive workload contains a tail of unsatisfiable
queries — inverted BETWEEN bounds, stale filter chips that contradict
each other, a similarity slider combined with an impossible band. The
analyzer proves these empty *before* planning, caching, or similarity
fingerprint resolution, so a federated engine answers them with zero
source round-trips and zero candidate enumeration.

This experiment replays a 100-query mixed workload (~5% unsatisfiable,
including one SIMILAR TO query) through three configurations on
identically-seeded cold worlds:

- ``naive``           — NaiveEngine: every query pays federation prices
- ``opt, analysis off``— QueryEngine with the analyzer disabled
                         (contradictions are planned and scanned
                         from the overlay, after similarity
                         resolution has run)
- ``opt, analysis on`` — the default engine

Expected shape: the analyzer short-circuits exactly the unsatisfiable
queries; round-trips saved vs naive scale with the unsatisfiable
fraction; on the optimized engine the visible win is the skipped
similarity-candidate enumeration (the overlay scan fetches nothing).
"""

from __future__ import annotations

import random
import time

from repro.core import EngineConfig, NaiveEngine, QueryEngine
from repro.obs import MetricsRegistry, get_metrics, set_metrics
from repro.workloads import DatasetConfig, TextTable, build_dataset

N_LEAVES = 60
N_LIGANDS = 120
WORLD_SEED = 777
N_QUERIES = 100

UNSATISFIABLE = [
    "SELECT * FROM bindings WHERE value_nm < 10 AND value_nm > 100",
    "SELECT count(*) FROM bindings WHERE p_affinity BETWEEN 9 AND 2",
    "SELECT * WHERE organism = 'human' AND organism = 'mouse'",
    "SELECT count(*), mean(p_affinity) FROM bindings "
    "WHERE value_nm < 1 AND value_nm >= 1",
    "SELECT ligand_id WHERE p_affinity > 9 AND p_affinity < 2 "
    "SIMILAR TO 'CC(=O)O' >= 0.3",
]

SATISFIABLE_TEMPLATES = [
    "SELECT count(*) FROM bindings WHERE p_affinity >= {t}",
    "SELECT ligand_id, value_nm FROM bindings WHERE value_nm <= {nm}",
    "SELECT count(*), mean(p_affinity) FROM bindings "
    "WHERE p_affinity BETWEEN {lo} AND {hi}",
    "SELECT * FROM bindings WHERE potent = true AND p_affinity >= {t}",
    "SELECT organism, count(*) FROM bindings, proteins "
    "GROUP BY organism HAVING count_all >= 1",
    "SELECT ligand_id FROM bindings WHERE activity_type = 'ki' "
    "ORDER BY p_affinity DESC LIMIT {k}",
]


def _workload() -> list[str]:
    """100 queries, the 5 unsatisfiable ones interleaved evenly."""
    rng = random.Random(4242)
    queries = []
    for _ in range(N_QUERIES - len(UNSATISFIABLE)):
        template = rng.choice(SATISFIABLE_TEMPLATES)
        lo = round(rng.uniform(4.0, 6.0), 1)
        queries.append(template.format(
            t=round(rng.uniform(5.0, 8.0), 1),
            nm=rng.choice([100, 500, 1000, 5000]),
            lo=lo, hi=round(lo + rng.uniform(1.0, 3.0), 1),
            k=rng.choice([5, 10, 25]),
        ))
    step = len(queries) // len(UNSATISFIABLE)
    for i, dtql in enumerate(UNSATISFIABLE):
        queries.insert(i * step + step // 2, dtql)
    return queries


def test_e11_short_circuit_savings(benchmark, report):
    workload = _workload()
    assert len(workload) == N_QUERIES

    def run(label, make_engine):
        # A fresh world per configuration: cold source caches, so
        # round-trip counts are comparable.
        data = build_dataset(DatasetConfig(
            n_leaves=N_LEAVES, n_ligands=N_LIGANDS, seed=WORLD_SEED))
        engine = make_engine(data)
        before = data.registry.combined_stats()["roundtrips"]
        candidates = 0
        # This configuration's own registry, so its counters start at 0.
        session = get_metrics()
        metrics = MetricsRegistry()
        set_metrics(metrics)
        try:
            started = time.perf_counter()
            for dtql in workload:
                result = engine.execute(dtql)
                candidates += getattr(result, "similarity_candidates",
                                      0) or 0
            wall_ms = (time.perf_counter() - started) * 1e3
        finally:
            set_metrics(session)
        roundtrips = data.registry.combined_stats()["roundtrips"] - before
        skipped = metrics.counter("query.analysis_short_circuit").value
        return (label, roundtrips, skipped, candidates, wall_ms)

    def sweep():
        return [
            run("naive", lambda d: NaiveEngine(d.tree, d.registry)),
            run("opt, analysis off", lambda d: QueryEngine(
                d.drugtree(), EngineConfig(use_semantic_analysis=False))),
            run("opt, analysis on", lambda d: QueryEngine(d.drugtree())),
        ]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = TextTable(
        ["configuration", "round-trips", "short-circuited",
         "similarity candidates", "wall ms"],
        title=f"E11  {N_QUERIES}-query workload, "
              f"{len(UNSATISFIABLE)} unsatisfiable",
    )
    for label, roundtrips, skipped, candidates, wall_ms in rows:
        table.add_row(label, roundtrips, skipped, candidates,
                      f"{wall_ms:.1f}")
    report(table)

    naive, off, on = rows
    # The analyzer fires on exactly the unsatisfiable tail.
    assert on[2] == len(UNSATISFIABLE)
    assert naive[2] == 0 and off[2] == 0
    # Naive pays federation prices for every query, including the
    # provably-empty ones; the optimized engines never fetch for them.
    assert naive[1] > off[1]
    assert on[1] <= off[1]
    # Only the analyzer skips similarity-candidate enumeration, which
    # runs before planning.
    assert off[3] > 0
    assert on[3] < off[3]


def test_e11_results_identical_across_configs():
    """Short-circuiting must never change an answer."""
    data = build_dataset(DatasetConfig(
        n_leaves=24, n_ligands=40, seed=WORLD_SEED))
    drugtree = data.drugtree()
    on = QueryEngine(drugtree)
    off = QueryEngine(drugtree, EngineConfig(
        use_semantic_analysis=False, use_semantic_cache=False))
    naive = NaiveEngine(data.tree, data.registry)
    for dtql in UNSATISFIABLE:
        rows_on = on.execute(dtql).rows
        assert rows_on == off.execute(dtql).rows
        assert rows_on == naive.execute(dtql).rows
