"""Quickstart: build a DrugTree and query it.

Builds a synthetic world (protein family + ligand library + simulated
remote sources), integrates it into a DrugTree, and walks through the
query API: DTQL text queries, clade aggregates, the semantic cache, and
EXPLAIN output.

Run with::

    python examples/quickstart.py
"""

from repro import DatasetConfig, NaiveEngine, QueryEngine, build_dataset


def main() -> None:
    # 1. A simulated world: 40-protein family, 80-compound library,
    #    three remote sources behind a federation registry.
    dataset = build_dataset(DatasetConfig(n_leaves=40, n_ligands=80,
                                          seed=42))
    print(f"tree: {dataset.tree.leaf_count} proteins, "
          f"{len(dataset.ligands)} ligands, "
          f"{len(dataset.bindings)} binding records")

    # 2. Integrate the federation into a local DrugTree overlay.
    drugtree, report = dataset.integrate()
    print(f"integration: {report.roundtrips} round-trips, "
          f"{report.virtual_latency_s:.2f}s simulated remote latency")
    print(drugtree)

    # 3. The optimized engine answers DTQL text queries.
    engine = QueryEngine(drugtree)
    clade = dataset.family.clade_names[1]

    result = engine.execute(
        f"SELECT count(*), mean(p_affinity), max(p_affinity) "
        f"IN SUBTREE '{clade}'"
    )
    print(f"\nclade {clade}: {result.rows[0]}")

    result = engine.execute(
        "SELECT ligand_id, protein_id, p_affinity FROM bindings "
        f"WHERE p_affinity >= 7.5 IN SUBTREE '{clade}' "
        "ORDER BY p_affinity DESC LIMIT 5"
    )
    print(f"\ntop binders in {clade}:")
    for row in result.rows:
        print(f"  {row['ligand_id']} -> {row['protein_id']} "
              f"(pAff {row['p_affinity']:.2f})")

    # 4. Re-running a query hits the semantic cache...
    repeat = engine.execute(
        f"SELECT count(*), mean(p_affinity), max(p_affinity) "
        f"IN SUBTREE '{clade}'"
    )
    print(f"\nrepeat query served from cache: {repeat.cache_outcome}")

    # ...but a *narrower* query is a miss: an entry answers its own
    # signature only, and re-executing is cheaper than deriving.
    engine.execute("SELECT * FROM bindings WHERE p_affinity >= 6.0")
    narrowed = engine.execute(
        "SELECT * FROM bindings WHERE p_affinity >= 8.0"
    )
    print(f"narrower query re-executed: "
          f"{narrowed.cache_outcome} ({len(narrowed.rows)} rows)")

    # 5. EXPLAIN shows what the optimizer chose.
    print("\nEXPLAIN SELECT * FROM bindings "
          f"WHERE p_affinity >= 7.5 IN SUBTREE '{clade}':")
    print(engine.explain(
        "SELECT * FROM bindings WHERE p_affinity >= 7.5 "
        f"IN SUBTREE '{clade}'"
    ))

    # 6. The naive engine answers the same query straight from the
    #    remote sources — correct, but at federation prices.
    naive = NaiveEngine(dataset.tree, dataset.registry)
    slow = naive.execute(
        f"SELECT count(*), mean(p_affinity), max(p_affinity) "
        f"IN SUBTREE '{clade}'"
    )
    print(f"\nnaive engine, same answer: {slow.rows[0]}")
    print(f"naive cost: {slow.roundtrips} round-trips, "
          f"{slow.virtual_latency_s:.2f}s simulated latency "
          f"(optimized engine: 0 round-trips)")


if __name__ == "__main__":
    main()
