"""Euler-tour interval labeling of the phylogenetic tree.

The first of the paper's "novel mechanisms": every tree node is labeled
with a half-open interval ``[pre, post)`` from a single preorder walk,
such that node B lies in the subtree of node A **iff**
``pre_A <= pre_B < post_A``. Leaves additionally receive a dense *leaf
position* in left-to-right order.

This turns the dominant DrugTree query — "everything under this clade" —
from a tree traversal into a range predicate over an integer column,
which a :class:`~repro.storage.index.SortedIndex` answers in
O(log n + answer) instead of O(tree).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bio.tree import PhyloNode, PhyloTree
from repro.errors import TreeError


@dataclass(frozen=True)
class NodeLabel:
    """Interval label of one tree node."""

    pre: int
    post: int
    depth: int
    leaf_low: int
    leaf_high: int  # exclusive

    @property
    def subtree_size(self) -> int:
        return self.post - self.pre

    @property
    def leaf_count(self) -> int:
        return self.leaf_high - self.leaf_low

    def contains(self, other: "NodeLabel") -> bool:
        """True if *other* lies in this node's subtree (inclusive)."""
        return self.pre <= other.pre < self.post


class IntervalLabeling:
    """Interval labels for every node of one tree.

    Nodes are addressed by *name* for named nodes (all leaves, any
    labeled internal node) and by ``PhyloNode.node_id`` for all nodes.
    """

    def __init__(self, tree: PhyloTree) -> None:
        self.tree = tree
        self._by_node_id: dict[int, NodeLabel] = {}
        #: Name -> node; an internal name may repeat (e.g. bootstrap
        #: values), and the first node in preorder keeps it.
        self._by_name: dict[str, PhyloNode] = {}
        self._leaf_name_by_position: list[str] = []
        self._label_all()

    def _label_all(self) -> None:
        # Iterative enter/exit walk: deep caterpillar trees must not hit
        # the recursion limit.
        counter = 0
        stack: list[tuple[PhyloNode, int, bool, int, int]] = [
            (self.tree.root, 0, False, 0, 0)
        ]
        while stack:
            node, depth, exiting, pre, leaf_low = stack.pop()
            if exiting:
                label = NodeLabel(
                    pre=pre,
                    post=counter,
                    depth=depth,
                    leaf_low=leaf_low,
                    leaf_high=len(self._leaf_name_by_position),
                )
                self._by_node_id[node.node_id] = label
                continue
            if node.name:
                self._by_name.setdefault(node.name, node)
            pre = counter
            counter += 1
            leaf_low = len(self._leaf_name_by_position)
            if node.is_leaf:
                self._leaf_name_by_position.append(node.name)
            stack.append((node, depth, True, pre, leaf_low))
            for child in reversed(node.children):
                stack.append((child, depth + 1, False, 0, 0))

    # -- lookup -------------------------------------------------------------

    def node_named(self, name: str) -> PhyloNode:
        """The node called *name* (the first in preorder): a dict
        lookup, not a walk."""
        try:
            return self._by_name[name]
        except KeyError:
            raise TreeError(f"no labeled node named {name!r}") from None

    def label_of(self, name: str) -> NodeLabel:
        return self._by_node_id[self.node_named(name).node_id]

    def label_of_node(self, node: PhyloNode) -> NodeLabel:
        try:
            return self._by_node_id[node.node_id]
        except KeyError:
            raise TreeError("node does not belong to the labeled tree") from None

    def has_name(self, name: str) -> bool:
        return name in self._by_name

    def leaf_position(self, leaf_name: str) -> int:
        """Dense left-to-right position of a leaf."""
        label = self.label_of(leaf_name)
        if label.leaf_count != 1:
            raise TreeError(f"{leaf_name!r} is not a leaf")
        return label.leaf_low

    def leaf_name_at(self, position: int) -> str:
        try:
            return self._leaf_name_by_position[position]
        except IndexError:
            raise TreeError(f"no leaf at position {position}") from None

    @property
    def leaf_count(self) -> int:
        return len(self._leaf_name_by_position)

    def leaf_range(self, node_name: str) -> tuple[int, int]:
        """Half-open leaf-position range of the named node's subtree."""
        label = self.label_of(node_name)
        return (label.leaf_low, label.leaf_high)

    def leaves_under(self, node_name: str) -> list[str]:
        low, high = self.leaf_range(node_name)
        return self._leaf_name_by_position[low:high]

    def is_ancestor(self, ancestor_name: str, descendant_name: str) -> bool:
        """True if the first named node contains the second (or equals)."""
        return self.label_of(ancestor_name).contains(
            self.label_of(descendant_name)
        )
