"""E10 — write amplification of the read optimizations (extension).

The read-side mechanisms (indexes, materialized clade aggregates) are
maintained synchronously on every appended batch of bindings — one row
per ``add_binding``, all of them for one ``add_bindings``. This
extension experiment — not in the poster, but the natural ablation of
the design decisions DESIGN.md calls out — measures what reads cost
writes: per-row wall time with derived structures on and off, row at a
time and as one batch, and the rows the clade aggregates folded.

Expected shape: maintained structures multiply insert cost by a small
constant (each index is O(log n) or O(1), the clade rollup is
O(depth)); the factor is the price of the E1/E2 read wins. A batch
pays the per-call costs once.
"""

from __future__ import annotations

import time

from repro.bio.simulate import birth_death_tree
from repro.chem import ActivityType, BindingRecord
from repro.core import DrugTree
from repro.workloads import TextTable
from repro.workloads.families import name_internal_clades

N_LEAVES = 100
N_INSERTS = 2000


def _fresh_drugtree(create_indexes: bool) -> DrugTree:
    tree = birth_death_tree(N_LEAVES, seed=55)
    name_internal_clades(tree)
    drugtree = DrugTree(tree)
    for leaf in tree.leaf_names():
        drugtree.add_protein(leaf)
    if create_indexes:
        drugtree.create_default_indexes()
    return drugtree


def _records() -> list[BindingRecord]:
    leaves = [f"taxon_{i:04d}" for i in range(N_LEAVES)]
    return [
        BindingRecord(f"L{i % 200:04d}", leaves[i % N_LEAVES],
                      ActivityType.KI, 10.0 + i)
        for i in range(N_INSERTS)
    ]


def test_e10_insert_cost(benchmark, report):
    records = _records()

    def sweep():
        from repro.core.overlay import bindings_schema
        from repro.storage import Table

        rows = []

        # Baseline: the raw row store, no derived structures at all.
        bare = Table("bindings", bindings_schema())
        leaf_positions = {f"taxon_{i:04d}": i for i in range(N_LEAVES)}
        started = time.perf_counter()
        for record in records:
            bare.insert({
                "ligand_id": record.ligand_id,
                "protein_id": record.protein_id,
                "activity_type": record.activity_type.value,
                "value_nm": record.value_nm,
                "p_affinity": record.p_affinity,
                "potent": record.is_potent,
                "leaf_pre": leaf_positions[record.protein_id],
            })
        rows.append(("bare row store",
                     (time.perf_counter() - started) / N_INSERTS * 1e6,
                     0))

        # DrugTree with clade aggregates only (no secondary indexes).
        aggs_only = _fresh_drugtree(create_indexes=False)
        started = time.perf_counter()
        for record in records:
            aggs_only.add_binding(record)
        rows.append(("clade aggregates",
                     (time.perf_counter() - started) / N_INSERTS * 1e6,
                     aggs_only.clade_aggregates.maintenance_ops))

        # Full physical design: indexes + clade aggregates.
        full = _fresh_drugtree(create_indexes=True)
        started = time.perf_counter()
        for record in records:
            full.add_binding(record)
        rows.append(("indexes + clade aggregates",
                     (time.perf_counter() - started) / N_INSERTS * 1e6,
                     full.clade_aggregates.maintenance_ops))

        # The same design, every record handed over in one append.
        batched = _fresh_drugtree(create_indexes=True)
        started = time.perf_counter()
        batched.add_bindings(records)
        rows.append(("indexes + clade aggregates, one batch",
                     (time.perf_counter() - started) / N_INSERTS * 1e6,
                     batched.clade_aggregates.maintenance_ops))
        return rows

    def best_of_three():
        # Each timed loop is ~10 ms, so one scheduling hiccup on a
        # shared box doubles a row; the fastest of three sweeps per
        # configuration is the one the machine did not disturb.
        return [min(candidates, key=lambda row: row[1])
                for candidates in zip(*(sweep() for _ in range(3)))]

    rows = benchmark.pedantic(best_of_three, rounds=1, iterations=1)
    table = TextTable(
        ["configuration", "us / row", "rows folded into clades"],
        title=f"E10  write amplification: {N_INSERTS} binding inserts "
              f"on a {N_LEAVES}-leaf tree",
    )
    for row in rows:
        table.add_row(*row)
    report(table)

    bare_us = rows[0][1]
    full_us = rows[2][1]
    # Maintained structures cost more per insert, but bounded: under
    # 20x of the bare insert on this shape.
    assert full_us > bare_us
    assert full_us < bare_us * 20
    # Every row is folded into the clade aggregates once, whether it
    # came alone or in a batch.
    assert rows[1][2] == rows[2][2] == rows[3][2] == N_INSERTS


def test_e10_single_insert_wall_time(benchmark):
    drugtree = _fresh_drugtree(create_indexes=True)
    counter = [0]

    def insert():
        counter[0] += 1
        drugtree.add_binding(BindingRecord(
            f"L{counter[0]:06d}", f"taxon_{counter[0] % N_LEAVES:04d}",
            ActivityType.KI, 50.0,
        ))

    benchmark.pedantic(insert, rounds=200, iterations=1)
