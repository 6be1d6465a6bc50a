"""Consensus trees from tree collections.

Majority-rule consensus: a clade appears in the consensus iff it occurs
in more than half of the input trees. Used to summarise bootstrap
replicates into a single displayable tree.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

from repro.bio.tree import PhyloNode, PhyloTree
from repro.errors import TreeError

#: A clade is kept when strictly more than this fraction of trees has it.
MAJORITY = 0.5


def majority_rule_consensus(trees: Sequence[PhyloTree]) -> PhyloTree:
    """Majority-rule consensus of *trees* (all over the same taxa).

    Returns a tree containing every clade in more than half of the
    trees; internal nodes are labeled with the percentage of input trees
    supporting them. Majority clades always nest, so the construction is
    well-defined.
    """
    if not trees:
        raise TreeError("consensus of an empty tree collection")
    taxa = frozenset(trees[0].leaf_names())
    for tree in trees[1:]:
        if frozenset(tree.leaf_names()) != taxa:
            raise TreeError("all trees must share the same taxa")

    counts: Counter[frozenset[str]] = Counter()
    for tree in trees:
        for clade in set(tree.clades().values()):
            if 1 < len(clade) < len(taxa):
                counts[frozenset(clade)] += 1

    total = len(trees)
    # Clades oriented as written (not canonical splits): for rooted
    # input trees this is the natural consensus of clades.
    majority = {
        clade: count / total
        for clade, count in counts.items()
        if count / total > MAJORITY
    }
    return _assemble(taxa, majority)


def _assemble(taxa: frozenset[str],
              majority: dict[frozenset[str], float]) -> PhyloTree:
    """Build the consensus tree from nested majority clades."""
    # Sort big-to-small: parents are placed before their children.
    ordered = sorted(majority, key=len, reverse=True)
    root = PhyloNode("")
    node_clades: dict[int, frozenset[str]] = {root.node_id: taxa}
    nodes: dict[int, PhyloNode] = {root.node_id: root}

    for clade in ordered:
        parent = _smallest_superset(root, clade, node_clades)
        support = majority[clade]
        fresh = PhyloNode(str(round(support * 100)))
        node_clades[fresh.node_id] = clade
        nodes[fresh.node_id] = fresh
        # Children of the parent that fall inside the new clade move
        # under it.
        movers = [
            child for child in list(parent.children)
            if node_clades[child.node_id] <= clade
        ]
        for child in movers:
            parent.remove_child(child)
            fresh.add_child(child)
        parent.add_child(fresh)

    # Attach leaves under the smallest clade containing them.
    for taxon in sorted(taxa):
        parent = _smallest_superset(root, frozenset((taxon,)),
                                    node_clades)
        leaf = PhyloNode(taxon)
        node_clades[leaf.node_id] = frozenset((taxon,))
        parent.add_child(leaf)
    return PhyloTree(root)


def _smallest_superset(root: PhyloNode, clade: frozenset[str],
                       node_clades: dict[int, frozenset[str]],
                       ) -> PhyloNode:
    """The deepest placed internal node whose clade contains *clade*."""
    current = root
    descended = True
    while descended:
        descended = False
        for child in current.children:
            child_clade = node_clades.get(child.node_id)
            # Skip attached taxon leaves (singleton clades); a freshly
            # placed internal node is childless but still descendable.
            if child_clade is None or len(child_clade) <= 1:
                continue
            if clade <= child_clade and child_clade != clade:
                current = child
                descended = True
                break
    return current
