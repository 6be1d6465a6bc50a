"""UPGMA hierarchical clustering tree construction.

UPGMA produces an ultrametric (clock-like) rooted tree; it is the method
used for guide trees in progressive multiple alignment and the fast
baseline compared against neighbor-joining in the tree-build benchmark.
"""

from __future__ import annotations

import numpy as np

from repro.bio.distance import DistanceMatrix
from repro.bio.tree import PhyloNode, PhyloTree
from repro.errors import TreeError


def upgma(matrix: DistanceMatrix) -> PhyloTree:
    """Build a rooted ultrametric tree by average-linkage clustering
    (the merged cluster's distances are averaged by cluster size)."""
    n = len(matrix)
    if n < 2:
        raise TreeError("UPGMA needs at least two taxa")

    dist = matrix.values.astype(np.float64).copy()
    np.fill_diagonal(dist, np.inf)
    nodes: list[PhyloNode | None] = [
        PhyloNode(name, 0.0) for name in matrix.names
    ]
    heights = [0.0] * n
    sizes = [1] * n
    active = set(range(n))

    while len(active) > 1:
        flat = int(np.argmin(dist))
        i, j = divmod(flat, dist.shape[0])
        if i == j or i not in active or j not in active:
            raise TreeError("UPGMA internal error: bad merge pair")
        merge_height = dist[i, j] / 2.0

        node_i, node_j = nodes[i], nodes[j]
        assert node_i is not None and node_j is not None
        node_i.branch_length = max(merge_height - heights[i], 0.0)
        node_j.branch_length = max(merge_height - heights[j], 0.0)
        parent = PhyloNode("", 0.0)
        parent.add_child(node_i)
        parent.add_child(node_j)

        # Merge cluster j into slot i; retire slot j.
        weight_i = sizes[i] / (sizes[i] + sizes[j])
        weight_j = sizes[j] / (sizes[i] + sizes[j])
        merged = weight_i * dist[i, :] + weight_j * dist[j, :]
        dist[i, :] = merged
        dist[:, i] = merged
        dist[i, i] = np.inf
        dist[j, :] = np.inf
        dist[:, j] = np.inf

        nodes[i] = parent
        nodes[j] = None
        heights[i] = merge_height
        sizes[i] += sizes[j]
        active.remove(j)

    root_index = next(iter(active))
    root = nodes[root_index]
    assert root is not None
    return PhyloTree(root)
