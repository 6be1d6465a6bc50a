"""E13 — vectorized columnar execution vs row-at-a-time (extension).

The row engine pulls one dict per row through a Volcano iterator tree;
every row pays Python call dispatch, dict construction, and predicate
re-evaluation. The vectorized engine scans the listener-maintained
:class:`~repro.storage.columnar.ColumnStore` a batch at a time,
narrows selection vectors with predicate closures compiled once per
plan, and only materializes the columns the plan consumes.

This experiment replays the scan-heavy E1/E7 workload families —
scalar aggregate, grouped aggregate, filter+project, top-k — over
bindings tables of 10k and 100k rows under both execution modes and
reports the wall-clock speedup. Result sets are asserted identical
before any timing is trusted. Expected shape: >= 3x on the scalar
aggregate family at the 100k scale, smaller but real wins elsewhere
(top-k pays one sort-key call per row in both engines, so it gains
the least; no sorted index exists on ``p_affinity`` here, so it stays
a scan — ``test_e13_ordered_topk_stops_early`` adds the index and
gates the ordered walk).

The worlds are built by direct bindings inserts over a small family
tree. The one secondary index (hash on ``ligand_id``) serves only the
``point_lookup`` family, moved here when E15 was retired so that
row-vs-vectorized on a few-match index probe stays measured (the batch
engine is the default for probes too). Every other family is a genuine
sequential scan, so the comparison isolates the execution model rather
than access-path choices.
"""

from __future__ import annotations

import random
from collections import Counter

from repro.core import DrugTree, EngineConfig, QueryEngine
from repro.obs import WallTimer
from repro.workloads import TextTable, make_family

WORLD_SEED = 501
N_LEAVES = 24
SCALES = (10_000, 100_000)
REPEATS = 3
#: The probe finishes in microseconds: take the best of more runs.
PROBE_FAMILY = "point_lookup"
PROBE_REPEATS = 40

#: family name -> DTQL text (bindings columns only: no joins, no
#: federation — the pure execution-engine comparison). The probe hits
#: the ligand_id hash index with a single-ligand equality.
FAMILIES: dict[str, str] = {
    "scan_agg": (
        "SELECT count(*), mean(p_affinity), max(p_affinity) "
        "FROM bindings WHERE potent = true"
    ),
    "group_by": (
        "SELECT activity_type, count(*), mean(p_affinity) "
        "FROM bindings GROUP BY activity_type ORDER BY activity_type"
    ),
    "filter_project": (
        "SELECT ligand_id, p_affinity FROM bindings "
        "WHERE p_affinity >= 6.5 AND potent = true"
    ),
    "topk": (
        "SELECT ligand_id, p_affinity FROM bindings "
        "ORDER BY p_affinity DESC LIMIT 50"
    ),
    PROBE_FAMILY: (
        "SELECT ligand_id, protein_id, p_affinity FROM bindings "
        "WHERE ligand_id = 'lig_0042'"
    ),
}

_ACTIVITY_TYPES = ("Ki", "Kd", "IC50", "EC50")


def build_world(n_rows: int, seed: int = WORLD_SEED) -> DrugTree:
    """A DrugTree whose bindings table holds *n_rows* synthetic rows.

    Rows go straight into the overlay table (no federation) so world
    build stays linear in *n_rows*; no scan family's predicate is
    indexed, so all but the probe family scan.
    """
    family = make_family(N_LEAVES, seed=seed)
    tree = DrugTree(family.tree)
    for protein_id in family.protein_ids:
        tree.add_protein(
            protein_id,
            organism=family.organisms[protein_id],
            family=family.families[protein_id],
        )
    bindings = tree.tables["bindings"]
    leaf_pre = {
        protein_id: tree.labeling.leaf_position(protein_id)
        for protein_id in family.protein_ids
    }
    protein_ids = family.protein_ids
    rng = random.Random(seed + 1)
    for i in range(n_rows):
        protein_id = protein_ids[i % len(protein_ids)]
        p_affinity = round(rng.uniform(3.0, 10.0), 3)
        bindings.insert({
            "ligand_id": f"lig_{i % 997:04d}",
            "protein_id": protein_id,
            "activity_type": _ACTIVITY_TYPES[i % len(_ACTIVITY_TYPES)],
            "value_nm": round(10.0 ** (9 - p_affinity), 4),
            "p_affinity": p_affinity,
            "potent": p_affinity >= 6.0,
            "leaf_pre": leaf_pre[protein_id],
        })
    bindings.create_index(["ligand_id"], kind="hash")
    return tree


def _engine(tree: DrugTree, mode: str) -> QueryEngine:
    return QueryEngine(tree, EngineConfig(
        use_semantic_cache=False, execution_mode=mode))


def _best_wall_s(engine: QueryEngine, dtql: str, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        with WallTimer() as timer:
            engine.execute(dtql)
        best = min(best, timer.elapsed_s)
    return best


def run_scale(n_rows: int, repeats: int = REPEATS) -> dict:
    """Both engines over every family at one scale."""
    tree = build_world(n_rows)
    row_engine = _engine(tree, "row")
    vec_engine = _engine(tree, "vectorized")
    tree.tables["bindings"].column_store()  # materialize outside timing
    results: dict[str, dict[str, float]] = {}
    for name, dtql in FAMILIES.items():
        row_answer = row_engine.execute(dtql)
        vec_answer = vec_engine.execute(dtql)
        if vec_answer.rows != row_answer.rows:
            raise AssertionError(
                f"E13 {name}@{n_rows}: engines disagree; timing void")
        runs = PROBE_REPEATS if name == PROBE_FAMILY else repeats
        row_s = _best_wall_s(row_engine, dtql, runs)
        vec_s = _best_wall_s(vec_engine, dtql, runs)
        results[name] = {
            "rows": n_rows,
            "result_rows": len(row_answer.rows),
            "row_s": row_s,
            "vectorized_s": vec_s,
            "speedup": row_s / vec_s if vec_s > 0 else float("inf"),
        }
    return results


def collect_metrics(scales: tuple[int, ...] = SCALES,
                    repeats: int = REPEATS) -> dict:
    """E13 numbers as one JSON-ready dict: per-scale per-family
    timings plus the headline speedup (scan_agg at the largest
    scale)."""
    by_scale = {str(n): run_scale(n, repeats=repeats) for n in scales}
    largest = str(max(scales))
    return {
        "scales": by_scale,
        "headline": {
            "family": "scan_agg",
            "rows": max(scales),
            "speedup": by_scale[largest]["scan_agg"]["speedup"],
        },
    }


def test_e13_vectorized_speedup(benchmark, report):
    def sweep():
        return collect_metrics()

    metrics = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = TextTable(
        ["rows", "family", "row ms", "vectorized ms", "speedup"],
        title="E13  vectorized vs row execution (best of "
              f"{REPEATS}, identical results asserted)",
    )
    for n_rows, families in metrics["scales"].items():
        for name, numbers in families.items():
            table.add_row(
                n_rows, name,
                f"{numbers['row_s'] * 1000:.2f}",
                f"{numbers['vectorized_s'] * 1000:.2f}",
                f"{numbers['speedup']:.2f}x",
            )
    report(table)
    # The acceptance gate: >= 3x on the scan-heavy scalar aggregate at
    # the largest scale.
    assert metrics["headline"]["speedup"] >= 3.0


def test_e13_small_scale_parity_is_cheap(report):
    """A CI-sized guard: the 2k-row sweep still agrees and speeds up."""
    results = run_scale(2_000, repeats=2)
    assert results["scan_agg"]["speedup"] > 1.0


def test_e13_ordered_topk_stops_early():
    """A timing-free gate: with a sorted index on the sort column,
    ``ORDER BY … LIMIT 20`` reads 20 index entries plus at most one run
    of equal keys — not the table — and answers like the scan."""
    tree = build_world(10_000)
    bindings = tree.tables["bindings"]
    dtql = ("SELECT ligand_id, p_affinity FROM bindings "
            "ORDER BY p_affinity DESC LIMIT 20")
    scanned = _engine(tree, "vectorized").execute(dtql)
    assert scanned.counters["rows_scanned"] == 10_000
    bindings.create_index(["p_affinity"], kind="sorted")
    longest_tie_run = max(Counter(
        bindings.column_store().column("p_affinity")).values())
    for mode in ("row", "vectorized"):
        walked = _engine(tree, mode).execute(dtql)
        assert walked.rows == scanned.rows
        assert walked.counters["rows_scanned"] <= 20 + longest_tie_run
