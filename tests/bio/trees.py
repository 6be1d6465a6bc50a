"""Tree fixtures shared by test modules."""

from repro.bio import PhyloNode, PhyloTree


def caterpillar(n: int) -> PhyloTree:
    """A maximally unbalanced tree over leaves ``t0``..``t{n-1}``, built
    without recursion: the worst case for a recursive traversal."""
    node = PhyloNode("t0", 1.0)
    for i in range(1, n):
        parent = PhyloNode("", 1.0)
        parent.add_child(node)
        parent.add_child(PhyloNode(f"t{i}", 1.0))
        node = parent
    node.branch_length = 0.0
    return PhyloTree(node)
