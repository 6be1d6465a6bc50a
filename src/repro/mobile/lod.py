"""Level-of-detail tree rendering.

A phone never needs the whole tree: the viewport shows one focus node a
few levels deep. :func:`render_viewport` walks from the focus node down
to ``max_depth``, collapsing everything deeper into *summary nodes*
that carry the materialized clade statistics (leaf count, binding
count, mean/max affinity) — so a collapsed clade is still informative,
just cheap.

:func:`render_full` is the baseline the payload experiment compares
against: the entire tree plus per-leaf binding statistics in one
payload.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.bio.tree import PhyloNode
from repro.core.drugtree import DrugTree
from repro.errors import MobileError


def _node_key(drugtree: DrugTree, node: PhyloNode) -> str:
    """Stable wire identifier: the preorder number of the node."""
    return f"n{drugtree.labeling.label_of_node(node).pre}"


def _base_entry(drugtree: DrugTree, node: PhyloNode) -> dict[str, Any]:
    label = drugtree.labeling.label_of_node(node)
    return {
        "name": node.name,
        "branch_length": round(node.branch_length, 6),
        "leaf": node.is_leaf,
        "leaves": label.leaf_count,
        "depth": label.depth,
    }


def _clade_summary(drugtree: DrugTree, node: PhyloNode) -> dict[str, Any]:
    stats = drugtree.clade_aggregates.stats_for(node)
    return {
        "bindings": int(stats["count"]),
        "mean_p_affinity": round(stats["mean"], 3),
        "max_p_affinity": round(stats["max"], 3),
        "potent_fraction": round(stats["potent_fraction"], 3),
    }


def render_viewport(drugtree: DrugTree, focus: str,
                    max_depth: int = 3,
                    max_nodes: int = 200) -> dict[str, Any]:
    """Render the subtree under *focus* to a bounded LOD payload.

    Children beyond *max_depth* (or once *max_nodes* is reached) become
    collapsed summary nodes with clade statistics; expanded leaves get
    their binding statistics inline.
    """
    if max_depth < 0:
        raise MobileError("max_depth must be non-negative")
    if max_nodes < 1:
        raise MobileError("max_nodes must be positive")
    if not drugtree.labeling.has_name(focus):
        raise MobileError(f"no tree node named {focus!r}")
    focus_node = drugtree.labeling.node_named(focus)
    nodes: dict[str, Any] = {}
    edges: list[tuple[str, str]] = []
    queue: deque[tuple[PhyloNode, int]] = deque([(focus_node, 0)])
    while queue:
        node, depth = queue.popleft()
        key = _node_key(drugtree, node)
        entry = _base_entry(drugtree, node)
        collapse = (
            not node.is_leaf
            and (depth >= max_depth or len(nodes) >= max_nodes)
        )
        if collapse:
            entry["collapsed"] = True
            entry["summary"] = _clade_summary(drugtree, node)
        else:
            entry["collapsed"] = False
            if node.is_leaf:
                entry["summary"] = _clade_summary(drugtree, node)
            for child in node.children:
                edges.append((key, _node_key(drugtree, child)))
                queue.append((child, depth + 1))
        nodes[key] = entry
    return {
        "focus": focus,
        "mode": "lod",
        "nodes": nodes,
        "edges": [list(edge) for edge in edges],
    }


def render_full(drugtree: DrugTree,
                include_bindings: bool = True) -> dict[str, Any]:
    """Render the whole tree (the no-LOD baseline payload)."""
    nodes: dict[str, Any] = {}
    edges: list[tuple[str, str]] = []
    for node in drugtree.tree.preorder():
        key = _node_key(drugtree, node)
        entry = _base_entry(drugtree, node)
        entry["collapsed"] = False
        if include_bindings and node.is_leaf:
            entry["summary"] = _clade_summary(drugtree, node)
            entry["bindings"] = [
                {
                    "ligand_id": row["ligand_id"],
                    "p_affinity": round(row["p_affinity"], 3),
                    "activity_type": row["activity_type"],
                }
                for row in drugtree.bindings_for_protein(node.name)
            ]
        for child in node.children:
            edges.append((key, _node_key(drugtree, child)))
        nodes[key] = entry
    return {
        "focus": drugtree.tree.root.name or "root",
        "mode": "full",
        "nodes": nodes,
        "edges": [list(edge) for edge in edges],
    }


def expandable_nodes(payload: dict[str, Any]) -> list[str]:
    """Names of collapsed nodes in a payload (the tap targets)."""
    return [
        entry["name"]
        for entry in payload.get("nodes", {}).values()
        if entry.get("collapsed") and entry.get("name")
    ]
