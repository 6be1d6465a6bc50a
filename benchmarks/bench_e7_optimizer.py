"""E7 — optimizer plan quality: join ordering and estimation accuracy.

Four measurements:

* **E7a** — hash-join strategies. DrugTree's overlay is a star schema
  around the ``bindings`` fact table, so every *connected* left-deep
  hash-join order performs the same scans; the optimizer's win here is
  bounded (build-side choice). The table documents that honestly.
* **E7b** — the same strategies under nested-loop joins, where order is
  everything: the fixed canonical order re-scans the fact table per
  outer row, while dp starts from the selective dimension.
* **E7c** — cardinality estimation quality (q-error). Single-table
  estimates are tight; subtree+affinity queries show real correlation
  error, because the dataset's phylogenetic signal (strong binders
  cluster in clades) breaks the independence assumption — a classic
  optimizer failure mode this reproduction preserves.
* **E7d** — the ordered-walk choice. For the mobile tap template
  (``… WHERE p_affinity >= t IN SUBTREE c ORDER BY p_affinity DESC
  LIMIT 10``) the planner prices "walk the p_affinity index downward
  with the clade as residual" against "clade scan + top-k". A
  timing-free gate on ``rows_scanned``: the costed choice must stay
  close to the better alternative and far below the scan-only plan.
"""

from __future__ import annotations

import time
from unittest import mock

from repro.core import EngineConfig, QueryEngine
from repro.core.query import cost as cost_model
from repro.core.query.ast import Comparison, Query
from repro.core.query.cost import Cost
from repro.workloads import QueryGenerator, TextTable, mean
from repro.workloads.loadgen import _QUERY_TEMPLATES

STRATEGIES = ("dp", "greedy", "fixed")
N_QUERIES = 10


def _join_queries(dataset):
    generator = QueryGenerator(dataset.family, dataset.ligands, seed=41)
    return [generator.draw("join") for _ in range(N_QUERIES)]


def test_e7a_hash_join_strategies(benchmark, world_medium, report):
    dataset = world_medium
    queries = _join_queries(dataset)

    def sweep():
        rows = []
        for strategy in STRATEGIES:
            engine = QueryEngine(dataset.drugtree(), EngineConfig(
                use_semantic_cache=False, join_strategy=strategy,
            ))
            wall = []
            scanned = 0
            estimated_cost = 0.0
            for query in queries:
                started = time.perf_counter()
                result = engine.execute(query)
                wall.append(time.perf_counter() - started)
                scanned += result.counters["rows_scanned"]
                assert result.plan is not None
                estimated_cost += result.plan.estimated_cost
            rows.append((strategy, estimated_cost / N_QUERIES,
                         scanned, mean(wall) * 1000))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = TextTable(
        ["strategy", "mean est. cost", "rows scanned",
         "mean wall ms/query"],
        title=f"E7a  hash-join ordering over {N_QUERIES} three-table "
              "queries (star schema: orders tie on I/O, differ on "
              "build side)",
    )
    for row in rows:
        table.add_row(*row)
    report(table)

    by_strategy = {row[0]: row for row in rows}
    assert by_strategy["dp"][1] <= by_strategy["fixed"][1]
    assert by_strategy["dp"][2] <= by_strategy["fixed"][2]
    assert by_strategy["greedy"][2] <= by_strategy["fixed"][2]


def test_e7b_nested_loop_strategies(benchmark, world_small, report):
    """Under nested-loop joins the join order dominates everything."""
    dataset = world_small
    drugtree = dataset.drugtree()
    organism = sorted(set(dataset.family.organisms.values()))[0]
    query = Query(
        select=("protein_id", "ligand_id", "p_affinity", "organism"),
        predicates=(Comparison("organism", "=", organism),),
    )

    def sweep():
        rows = []
        for strategy in ("dp", "fixed"):
            # Indexes off: the inner side is a sequential re-scan, the
            # regime where join order makes or breaks the plan.
            engine = QueryEngine(drugtree, EngineConfig(
                use_semantic_cache=False, join_strategy=strategy,
                join_method="nested_loop", use_indexes=False,
            ))
            started = time.perf_counter()
            result = engine.execute(query)
            wall_s = time.perf_counter() - started
            rows.append((strategy, result.plan.join_order,
                         result.counters["rows_scanned"], wall_s * 1000,
                         len(result.rows)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = TextTable(
        ["strategy", "join order", "rows scanned", "wall ms",
         "result rows"],
        title="E7b  nested-loop join: order dominates "
              f"({world_small.config.n_leaves}-leaf world)",
    )
    for strategy, order, scanned, wall_ms, n in rows:
        table.add_row(strategy, ">".join(order), scanned, wall_ms, n)
    report(table)

    by_strategy = {row[0]: row for row in rows}
    assert by_strategy["dp"][4] == by_strategy["fixed"][4]  # same answer
    assert by_strategy["dp"][2] <= by_strategy["fixed"][2]


def test_e7c_cardinality_estimation(benchmark, world_medium, report):
    dataset = world_medium
    drugtree = dataset.drugtree()
    generator = QueryGenerator(dataset.family, dataset.ligands, seed=43)
    kinds = ("subtree_filter", "organism_filter", "property_range",
             "join")

    def sweep():
        rows = []
        engine = QueryEngine(drugtree,
                             EngineConfig(use_semantic_cache=False))
        for kind in kinds:
            ratios = []
            for _ in range(6):
                query = generator.draw(kind)
                result = engine.execute(query)
                assert result.plan is not None
                estimated = max(result.plan.estimated_rows, 0.5)
                actual = max(len(result.rows), 0.5)
                ratio = max(estimated, actual) / min(estimated, actual)
                ratios.append(ratio)
            rows.append((kind, mean(ratios), max(ratios)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = TextTable(
        ["query kind", "mean q-error", "max q-error"],
        title="E7c  cardinality estimation quality "
              "(q-error = max(est,act)/min(est,act))",
    )
    for row in rows:
        table.add_row(*row)
    report(table)

    by_kind = {row[0]: row for row in rows}
    # Independent single-table predicates estimate tightly...
    assert by_kind["organism_filter"][1] < 3
    assert by_kind["property_range"][1] < 3
    # ...while subtree+affinity queries hit the correlation wall
    # (phylogenetic signal breaks independence); bounded but visible.
    assert by_kind["subtree_filter"][1] < 60
    assert all(row[2] < 200 for row in rows)


def test_e7d_ordered_walk_choice(world_medium, report):
    """Plan quality of the index-order access path, counted not timed.

    Every (clade, threshold) instance of the loadgen's top-k template
    runs three times: as the planner costs it, with the walk priced at
    zero (always walk) and with it priced out (the scan-only plan every
    query got before the access path existed). Means are reported
    uniform over the grid and weighted the way the load generator draws
    clades (Zipf over ``clade_names``, so the big clades carry the
    traffic); the 10x gate is on the traffic-weighted mean — uniform,
    two-leaf clades dominate the grid and even the better-of-two oracle
    is only ~3.5x below the scan.
    """
    dataset = world_medium
    engine = QueryEngine(dataset.drugtree(),
                         EngineConfig(use_semantic_cache=False))
    thresholds = (5.0, 5.5, 6.0, 6.5, 7.0, 7.5)
    grid = [_QUERY_TEMPLATES[1].format(clade=clade, threshold=threshold)
            for clade in dataset.family.clade_names
            for threshold in thresholds]
    # ZipfSampler's weights (its default exponent), one per instance.
    traffic = [1.0 / rank ** 1.1
               for rank in range(1, len(dataset.family.clade_names) + 1)
               for _ in thresholds]

    def weighted(values) -> float:
        return (sum(weight * value
                    for weight, value in zip(traffic, values))
                / sum(traffic))

    def scanned(price) -> list[int]:
        with mock.patch.object(cost_model, "index_order_cost",
                               lambda walked, residuals: Cost(price)):
            return [engine.execute(query).counters["rows_scanned"]
                    for query in grid]

    always_walk = scanned(0.0)
    never_walk = scanned(float("inf"))
    chosen, q_errors = [], []
    for query in grid:
        result = engine.execute(query)
        chosen.append(result.counters["rows_scanned"])
        scan = result.plan.logical
        while scan.children():
            scan = scan.children()[0]
        if scan.access == "index_order":
            estimated = max(scan.estimated_walk, 0.5)
            actual = max(chosen[-1], 0.5)
            q_errors.append(max(estimated, actual)
                            / min(estimated, actual))
    better = [min(pair) for pair in zip(always_walk, never_walk)]
    close = sum(mine <= 2 * best
                for mine, best in zip(chosen, better)) / len(grid)

    table = TextTable(
        ["plan", "rows scanned, grid mean", "traffic-weighted mean"],
        title=f"E7d  ordered-walk choice over {len(grid)} (clade, "
              "threshold) instances of the tap template "
              f"({dataset.config.n_leaves}-leaf world)",
    )
    for label, values in (("scan + top-k only (before)", never_walk),
                          ("walk only", always_walk),
                          ("better of the two (oracle)", better),
                          ("costed choice", chosen)):
        table.add_row(label, mean(values), weighted(values))
    table.add_row(f"walks chosen {len(q_errors)}/{len(grid)}; within 2x "
                  f"of the better plan on {close:.1%} of the grid", "", "")
    table.add_row("walked entries, estimated vs actual: q-error mean "
                  f"{mean(q_errors):.2f}, max {max(q_errors):.1f}", "", "")
    report(table)

    assert close >= 0.90
    assert weighted(chosen) * 10 <= weighted(never_walk)
    assert mean(chosen) * 2 <= mean(never_walk)
