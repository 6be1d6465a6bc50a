"""Bootstrap support values for distance-based trees.

Columns of a multiple alignment are resampled with replacement; a tree is
rebuilt from each pseudo-replicate and every internal edge of the
reference tree is scored by the fraction of replicates containing the
same bipartition.
"""

from __future__ import annotations

import random
from collections.abc import Callable

from repro.bio.distance import DistanceMatrix, distance_matrix_from_msa
from repro.bio.msa import MultipleAlignment
from repro.bio.nj import neighbor_joining
from repro.bio.tree import PhyloTree
from repro.errors import TreeError

TreeBuilder = Callable[[DistanceMatrix], PhyloTree]


def resample_alignment(alignment: MultipleAlignment,
                       rng: random.Random) -> MultipleAlignment:
    """Sample alignment columns with replacement (one bootstrap draw)."""
    width = alignment.width
    columns = [rng.randrange(width) for _ in range(width)]
    rows = tuple(
        "".join(row[c] for c in columns) for row in alignment.rows
    )
    return MultipleAlignment(alignment.names, rows)


def bootstrap_support(reference: PhyloTree,
                      alignment: MultipleAlignment,
                      replicates: int = 100,
                      builder: TreeBuilder = neighbor_joining,
                      correction: str = "p",
                      seed: int | None = None) -> dict[frozenset[str], float]:
    """Support for each non-trivial bipartition of *reference*.

    Returns a mapping from bipartition (canonical smaller-side leaf set,
    as produced by :meth:`PhyloTree.bipartitions`) to the fraction of
    bootstrap replicates whose tree contains that bipartition.
    """
    if replicates < 1:
        raise TreeError("need at least one bootstrap replicate")
    if set(reference.leaf_names()) != set(alignment.names):
        raise TreeError("alignment names do not match tree leaves")
    rng = random.Random(seed)
    targets = reference.bipartitions()
    counts = {split: 0 for split in targets}
    for _ in range(replicates):
        draw = resample_alignment(alignment, rng)
        matrix = distance_matrix_from_msa(draw.names, draw.rows,
                                          correction=correction)
        replicate_tree = builder(matrix)
        found = replicate_tree.bipartitions()
        for split in targets:
            if split in found:
                counts[split] += 1
    return {split: count / replicates for split, count in counts.items()}
