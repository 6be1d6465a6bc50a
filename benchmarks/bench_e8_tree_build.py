"""E8 — substrate scalability: tree construction.

Sanity-checks the phylogenetics substrate under the sizes the system
serves: neighbor-joining on growing distance matrices, plus the cost of
computing a distance matrix from pairwise alignments at a modest size
(the expensive step in practice).

Expected shape: neighbor-joining is polynomial (roughly cubic-ish here),
comfortably handles hundreds of taxa and reconstructs non-ultrametric
trees exactly.
"""

from __future__ import annotations

import time

from repro.bio import DistanceMatrix, neighbor_joining
from repro.bio.distance import distance_matrix
from repro.bio.simulate import birth_death_tree, evolve_sequences
from repro.workloads import TextTable

SIZES = (25, 50, 100, 200)


def _matrix(n: int) -> DistanceMatrix:
    tree = birth_death_tree(n, seed=n)
    names, values = tree.cophenetic_matrix()
    return DistanceMatrix(names, values)


def test_e8_clustering_scalability(benchmark, report):
    def sweep():
        rows = []
        for n in SIZES:
            matrix = _matrix(n)
            started = time.perf_counter()
            nj_tree = neighbor_joining(matrix)
            nj_s = time.perf_counter() - started
            rows.append((n, nj_s * 1000, nj_tree.leaf_count == n))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = TextTable(
        ["taxa", "NJ ms", "complete"],
        title="E8  tree construction from a distance matrix",
    )
    for row in rows:
        table.add_row(*row)
    report(table)

    assert all(row[2] for row in rows)
    nj_times = [row[1] for row in rows]
    assert nj_times[-1] > nj_times[0]  # grows with input, sanely


def test_e8_nj_wall_time(benchmark):
    matrix = _matrix(100)
    benchmark.pedantic(lambda: neighbor_joining(matrix),
                       rounds=3, iterations=1)


def test_e8_alignment_distance_matrix_wall_time(benchmark, report):
    """The expensive real-world step: all-pairs global alignment."""
    tree = birth_death_tree(16, seed=3)
    for node in tree.preorder():
        node.branch_length *= 0.3
    sequences = evolve_sequences(tree, length=120, seed=4)

    result = benchmark.pedantic(
        lambda: distance_matrix(sequences),
        rounds=1, iterations=1,
    )
    rebuilt = neighbor_joining(result)
    table = TextTable(
        ["step", "value"],
        title="E8b  16 sequences x 120 residues, full pipeline",
    )
    table.add_row("pairwise alignments", 16 * 15 // 2)
    table.add_row("RF distance to true tree",
                  rebuilt.robinson_foulds(tree))
    report(table)
