"""Phylogenetic tree structure, Newick I/O, and tree operations.

:class:`PhyloTree` is the backbone of the whole system: the DrugTree
overlay, the interval labeling used by the query optimizer, and the mobile
level-of-detail protocol all operate on these trees.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from typing import Optional

import numpy as np

from repro.errors import TreeError


class PhyloNode:
    """A node in a rooted phylogenetic tree.

    Leaves carry taxon names; internal nodes may be anonymous or carry
    clade labels (e.g. bootstrap support rendered by some tools). Branch
    length is the length of the edge *above* the node (to its parent).
    """

    __slots__ = ("name", "branch_length", "children", "parent", "_id")

    _id_counter = itertools.count()

    def __init__(self, name: str = "",
                 branch_length: float = 0.0) -> None:
        if branch_length < 0:
            raise TreeError(f"negative branch length {branch_length}")
        self.name = name
        self.branch_length = float(branch_length)
        self.children: list[PhyloNode] = []
        self.parent: Optional[PhyloNode] = None
        self._id = next(PhyloNode._id_counter)

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else f"internal/{len(self.children)}"
        return f"PhyloNode({self.name!r}, {kind}, bl={self.branch_length:g})"

    @property
    def node_id(self) -> int:
        """Process-unique identifier, stable for the node's lifetime."""
        return self._id

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def is_root(self) -> bool:
        return self.parent is None

    def add_child(self, child: "PhyloNode") -> None:
        if child is self:
            raise TreeError("a node cannot be its own child")
        if child.parent is not None:
            raise TreeError(f"node {child.name!r} already has a parent")
        child.parent = self
        self.children.append(child)

    def remove_child(self, child: "PhyloNode") -> None:
        try:
            self.children.remove(child)
        except ValueError:
            raise TreeError(f"{child!r} is not a child of {self!r}") from None
        child.parent = None

    # -- traversals ---------------------------------------------------

    def preorder(self) -> Iterator["PhyloNode"]:
        """Depth-first, parents before children."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def postorder(self) -> Iterator["PhyloNode"]:
        """Depth-first, children before parents."""
        # Iterative two-stack postorder: avoids recursion limits on the
        # deep caterpillar trees the simulator can produce.
        stack = [self]
        out: list[PhyloNode] = []
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(node.children)
        return iter(reversed(out))

    def leaves(self) -> Iterator["PhyloNode"]:
        """Leaves of the subtree rooted here, in preorder."""
        return (node for node in self.preorder() if node.is_leaf)

    def ancestors(self) -> Iterator["PhyloNode"]:
        """Ancestors from parent up to (and including) the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    # -- measures -----------------------------------------------------

    def subtree_size(self) -> int:
        """Number of nodes (internal and leaf) in this subtree."""
        return sum(1 for _ in self.preorder())

    def leaf_count(self) -> int:
        return sum(1 for _ in self.leaves())

    def distance_to_root(self) -> float:
        """Sum of branch lengths from this node up to the root."""
        total = self.branch_length
        for ancestor in self.ancestors():
            if ancestor.parent is not None:
                total += ancestor.branch_length
        return total


class PhyloTree:
    """A rooted phylogenetic tree with named leaves.

    The constructor validates that leaf names are unique and non-empty;
    every algorithm in the library relies on that invariant.
    """

    def __init__(self, root: PhyloNode) -> None:
        self.root = root
        self._check_leaf_names()

    def _check_leaf_names(self) -> None:
        seen: set[str] = set()
        for leaf in self.root.leaves():
            if not leaf.name:
                raise TreeError("every leaf must be named")
            if leaf.name in seen:
                raise TreeError(f"duplicate leaf name {leaf.name!r}")
            seen.add(leaf.name)

    def __repr__(self) -> str:
        return (
            f"PhyloTree({self.leaf_count} leaves, "
            f"{self.node_count} nodes)"
        )

    # -- basic accessors ----------------------------------------------

    @property
    def leaf_count(self) -> int:
        return self.root.leaf_count()

    @property
    def node_count(self) -> int:
        return self.root.subtree_size()

    def leaves(self) -> list[PhyloNode]:
        return list(self.root.leaves())

    def leaf_names(self) -> list[str]:
        return [leaf.name for leaf in self.root.leaves()]

    def preorder(self) -> Iterator[PhyloNode]:
        return self.root.preorder()

    def postorder(self) -> Iterator[PhyloNode]:
        return self.root.postorder()

    def find(self, name: str) -> PhyloNode:
        """Find a node by name; raises TreeError if absent."""
        for node in self.preorder():
            if node.name == name:
                return node
        raise TreeError(f"no node named {name!r}")

    def is_binary(self) -> bool:
        """True if every internal node has exactly two children."""
        return all(
            len(node.children) == 2
            for node in self.preorder()
            if not node.is_leaf
        )

    # -- relationships ------------------------------------------------

    def lca(self, names: Iterable[str]) -> PhyloNode:
        """Lowest common ancestor of the named leaves."""
        nodes = [self.find(name) for name in names]
        if not nodes:
            raise TreeError("lca of an empty set of names")
        paths: list[list[PhyloNode]] = []
        for node in nodes:
            path = [node, *node.ancestors()]
            path.reverse()
            paths.append(path)
        lca = None
        for level in zip(*paths):
            first = level[0]
            if all(other is first for other in level[1:]):
                lca = first
            else:
                break
        if lca is None:
            raise TreeError("nodes do not share a root (corrupt tree)")
        return lca

    def distance(self, name_a: str, name_b: str) -> float:
        """Patristic (branch-length) distance between two leaves."""
        node_a, node_b = self.find(name_a), self.find(name_b)
        ancestor = self.lca([name_a, name_b])
        total = 0.0
        for node in (node_a, node_b):
            while node is not ancestor:
                total += node.branch_length
                assert node.parent is not None
                node = node.parent
        return total

    def cophenetic_matrix(self) -> tuple[tuple[str, ...], np.ndarray]:
        """All-pairs leaf distances (tip-to-tip, by branch length).

        Computed in a single postorder pass: O(n^2) total instead of
        n^2 separate LCA walks.
        """
        leaves = self.leaves()
        names = tuple(leaf.name for leaf in leaves)
        index = {leaf.node_id: i for i, leaf in enumerate(leaves)}
        n = len(leaves)
        dist = np.zeros((n, n), dtype=np.float64)
        # Map from node -> {leaf index: distance from node to that leaf}.
        below: dict[int, dict[int, float]] = {}
        for node in self.postorder():
            if node.is_leaf:
                below[node.node_id] = {index[node.node_id]: 0.0}
                continue
            merged: dict[int, float] = {}
            child_maps = []
            for child in node.children:
                child_map = {
                    leaf_i: d + child.branch_length
                    for leaf_i, d in below.pop(child.node_id).items()
                }
                child_maps.append(child_map)
            for first, second in itertools.combinations(child_maps, 2):
                for leaf_i, d_i in first.items():
                    for leaf_j, d_j in second.items():
                        dist[leaf_i, leaf_j] = dist[leaf_j, leaf_i] = d_i + d_j
            for child_map in child_maps:
                merged.update(child_map)
            below[node.node_id] = merged
        return names, dist

    # -- editing ------------------------------------------------------

    def copy(self) -> "PhyloTree":
        """Deep copy with fresh node identities."""

        def clone(node: PhyloNode) -> PhyloNode:
            fresh = PhyloNode(node.name, node.branch_length)
            for child in node.children:
                fresh.add_child(clone(child))
            return fresh

        return PhyloTree(clone(self.root))

    def reroot_at_midpoint(self) -> "PhyloTree":
        """Copy rerooted at the midpoint of the longest leaf-leaf path."""
        names, dist = self.cophenetic_matrix()
        if len(names) < 2:
            return self.copy()
        i, j = np.unravel_index(np.argmax(dist), dist.shape)
        target = dist[i, j] / 2.0
        tree = self.copy()
        # Walk from leaf i toward leaf j accumulating branch length until
        # the midpoint edge is reached.
        node = tree.find(names[i])
        ancestor = tree.lca([names[i], names[j]])
        walked = 0.0
        path_up: list[PhyloNode] = []
        cursor = node
        while cursor is not ancestor:
            path_up.append(cursor)
            assert cursor.parent is not None
            cursor = cursor.parent
        for edge_node in path_up:
            if walked + edge_node.branch_length >= target:
                offset = target - walked
                return tree._reroot_on_edge(edge_node, offset)
            walked += edge_node.branch_length
        # Midpoint lies on leaf j's side; walk down from the LCA.
        node = tree.find(names[j])
        path_up = []
        cursor = node
        while cursor is not ancestor:
            path_up.append(cursor)
            assert cursor.parent is not None
            cursor = cursor.parent
        remaining = dist[i, j] - target
        walked = 0.0
        for edge_node in path_up:
            if walked + edge_node.branch_length >= remaining:
                offset = remaining - walked
                return tree._reroot_on_edge(edge_node, offset)
            walked += edge_node.branch_length
        return tree

    def _reroot_on_edge(self, below: PhyloNode, offset: float) -> "PhyloTree":
        """Reroot on the edge above *below*, *offset* above that node.

        Mutates and returns this tree (callers pass a private copy). The
        edge of length L splits into ``offset`` (kept by *below*) and
        ``L - offset`` (given to the old-parent side). Parent pointers on
        the path from the old parent to the old root are reversed.
        """
        if below.parent is None:
            return self
        edge_length = below.branch_length
        offset = min(max(offset, 0.0), edge_length)
        upper_length = edge_length - offset

        old_parent = below.parent
        old_parent.remove_child(below)
        new_root = PhyloNode("", 0.0)
        below.branch_length = offset
        new_root.add_child(below)

        prev = new_root
        attach_length = upper_length
        node: Optional[PhyloNode] = old_parent
        while node is not None:
            parent = node.parent
            if parent is not None:
                parent.remove_child(node)
            next_attach = node.branch_length
            node.branch_length = attach_length
            prev.add_child(node)
            prev = node
            attach_length = next_attach
            node = parent
        # The old root gave up a child and got no parent in exchange: left
        # with one child it is a unary node, and its edge merges into the
        # child's.
        if len(prev.children) == 1:
            (only,) = prev.children
            keeper = prev.parent
            assert keeper is not None
            keeper.remove_child(prev)
            prev.remove_child(only)
            only.branch_length += prev.branch_length
            keeper.add_child(only)
        return PhyloTree(new_root)

    # -- comparison ---------------------------------------------------

    def bipartitions(self) -> set[frozenset[str]]:
        """Non-trivial leaf bipartitions (as the smaller-side leaf sets).

        Each internal edge splits the leaves in two; the split is encoded
        canonically so two trees over the same taxa can be compared.
        """
        all_leaves = frozenset(self.leaf_names())
        below: dict[int, frozenset[str]] = {}   # node id -> its leaf set
        splits: set[frozenset[str]] = set()
        for node in self.postorder():
            if node.is_leaf:
                clade = frozenset((node.name,))
            else:
                clade = frozenset().union(
                    *(below.pop(child.node_id) for child in node.children))
            below[node.node_id] = clade
            if 1 < len(clade) < len(all_leaves) - 1:
                other = all_leaves - clade
                splits.add(min(clade, other,
                               key=lambda s: (len(s), sorted(s))))
        return splits

    def robinson_foulds(self, other: "PhyloTree") -> int:
        """Robinson–Foulds distance (symmetric-difference of splits)."""
        if set(self.leaf_names()) != set(other.leaf_names()):
            raise TreeError("trees must share the same leaf set")
        return len(self.bipartitions() ^ other.bipartitions())

    # -- Newick I/O ---------------------------------------------------

    def to_newick(self, include_lengths: bool = True) -> str:
        """Render the tree as a Newick string (terminated with ``;``)."""

        def render(node: PhyloNode) -> str:
            if node.is_leaf:
                text = _quote_label(node.name)
            else:
                inner = ",".join(render(child) for child in node.children)
                text = f"({inner}){_quote_label(node.name)}"
            if include_lengths and node.parent is not None:
                text = f"{text}:{node.branch_length:g}"
            return text

        return f"{render(self.root)};"


def _quote_label(label: str) -> str:
    if not label:
        return ""
    specials = set("();,: \t'[]")
    if any(char in specials for char in label):
        escaped = label.replace("'", "''")
        return f"'{escaped}'"
    return label


class _NewickParser:
    """Recursive-descent parser for Newick tree text."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def parse(self) -> PhyloNode:
        node = self._parse_node()
        self._skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ";":
            raise TreeError("Newick text must end with ';'")
        self.pos += 1
        self._skip_ws()
        if self.pos != len(self.text):
            raise TreeError("trailing characters after Newick ';'")
        return node

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        if self.pos >= len(self.text):
            raise TreeError("unexpected end of Newick text")
        return self.text[self.pos]

    def _parse_node(self) -> PhyloNode:
        children: list[PhyloNode] = []
        if self._peek() == "(":
            self.pos += 1
            children.append(self._parse_node())
            while self._peek() == ",":
                self.pos += 1
                children.append(self._parse_node())
            if self._peek() != ")":
                raise TreeError("expected ')' in Newick text")
            self.pos += 1
        name = self._parse_label()
        branch = 0.0
        self._skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == ":":
            self.pos += 1
            branch = self._parse_number()
        node = PhyloNode(name, branch)
        for child in children:
            node.add_child(child)
        return node

    def _parse_label(self) -> str:
        self._skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == "'":
            return self._parse_quoted()
        start = self.pos
        stops = set("();,:")
        while (self.pos < len(self.text)
               and self.text[self.pos] not in stops
               and not self.text[self.pos].isspace()):
            self.pos += 1
        return self.text[start:self.pos]

    def _parse_quoted(self) -> str:
        self.pos += 1  # opening quote
        chars: list[str] = []
        while True:
            if self.pos >= len(self.text):
                raise TreeError("unterminated quoted Newick label")
            char = self.text[self.pos]
            if char == "'":
                if (self.pos + 1 < len(self.text)
                        and self.text[self.pos + 1] == "'"):
                    chars.append("'")
                    self.pos += 2
                    continue
                self.pos += 1
                return "".join(chars)
            chars.append(char)
            self.pos += 1

    def _parse_number(self) -> float:
        self._skip_ws()
        start = self.pos
        allowed = set("0123456789+-.eE")
        while self.pos < len(self.text) and self.text[self.pos] in allowed:
            self.pos += 1
        token = self.text[start:self.pos]
        try:
            value = float(token)
        except ValueError:
            raise TreeError(f"bad branch length {token!r}") from None
        if math.isnan(value) or math.isinf(value):
            raise TreeError(f"non-finite branch length {token!r}")
        if value < 0:
            raise TreeError(f"negative branch length {token!r}")
        return value


def parse_newick(text: str) -> PhyloTree:
    """Parse Newick *text* into a :class:`PhyloTree`."""
    if not text or not text.strip():
        raise TreeError("empty Newick text")
    return PhyloTree(_NewickParser(text.strip()).parse())
