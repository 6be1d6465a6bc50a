"""ASCII rendering of phylogenetic trees.

Produces the box-drawing tree layout familiar from ``tree(1)``,
optionally annotating each node with a caller-supplied label (the CLI
uses this to show per-clade binding statistics next to the topology).
"""

from __future__ import annotations

from collections.abc import Callable

from repro.bio.tree import PhyloNode, PhyloTree

#: Optional per-node annotation callback.
Annotator = Callable[[PhyloNode], str]

_TEE = "├── "
_ELBOW = "└── "
_PIPE = "│   "
_SPACE = "    "


def ascii_tree(tree: PhyloTree,
               annotate: Annotator | None = None,
               max_depth: int | None = None,
               show_branch_lengths: bool = False) -> str:
    """Render *tree* as indented ASCII art.

    ``annotate(node)`` may return extra text appended to a node's line;
    ``max_depth`` collapses deeper subtrees into a ``… (n leaves)``
    summary line.
    """
    lines: list[str] = []

    def label_of(node: PhyloNode) -> str:
        label = node.name or "•"
        if show_branch_lengths and node.parent is not None:
            label = f"{label}:{node.branch_length:.3g}"
        if annotate is not None:
            extra = annotate(node)
            if extra:
                label = f"{label}  {extra}"
        return label

    def walk(node: PhyloNode, prefix: str, connector: str,
             depth: int) -> None:
        lines.append(f"{prefix}{connector}{label_of(node)}")
        if node.is_leaf:
            return
        if max_depth is not None and depth >= max_depth:
            child_prefix = prefix + (_SPACE if connector == _ELBOW
                                     else _PIPE)
            if connector == "":
                child_prefix = prefix + _SPACE
            lines.append(
                f"{child_prefix}{_ELBOW}… ({node.leaf_count()} leaves)"
            )
            return
        child_prefix = prefix
        if connector == _TEE:
            child_prefix += _PIPE
        elif connector == _ELBOW:
            child_prefix += _SPACE
        for position, child in enumerate(node.children):
            last = position == len(node.children) - 1
            walk(child, child_prefix, _ELBOW if last else _TEE,
                 depth + 1)

    walk(tree.root, "", "", 0)
    return "\n".join(lines)
