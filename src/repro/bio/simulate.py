"""Synthetic phylogenies and sequence evolution.

These simulators stand in for the public protein-family data the paper's
system pulled from live sources (see DESIGN.md, substitutions table).
A birth–death process generates species trees with realistic shapes, and
sequences evolve along the branches under a BLOSUM-derived substitution
kernel, so that alignment-based distances correlate with true tree
distances.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.bio import alphabet
from repro.bio.matrices import BLOSUM62, SubstitutionMatrix
from repro.bio.seq import ProteinSequence
from repro.bio.tree import PhyloNode, PhyloTree
from repro.errors import TreeError


def birth_death_tree(num_leaves: int,
                     birth_rate: float = 1.0,
                     death_rate: float = 0.0,
                     seed: int | None = None,
                     leaf_prefix: str = "taxon") -> PhyloTree:
    """Simulate a birth–death tree with exactly *num_leaves* leaves.

    Standard constant-rate birth–death simulation conditioned on the
    number of extant taxa: lineages split at rate *birth_rate* and die at
    rate *death_rate*; the simulation restarts on full extinction.
    Leaves are named ``{leaf_prefix}_{i:04d}`` in creation order.
    """
    if num_leaves < 2:
        raise TreeError("need at least two leaves")
    if birth_rate <= 0:
        raise TreeError("birth rate must be positive")
    if death_rate < 0 or death_rate >= birth_rate:
        raise TreeError("death rate must satisfy 0 <= death < birth")
    rng = random.Random(seed)

    for _ in range(1000):
        tree = _try_birth_death(num_leaves, birth_rate, death_rate, rng,
                                leaf_prefix)
        if tree is not None:
            return tree
    raise TreeError("birth-death simulation failed to produce a tree")


def _try_birth_death(num_leaves: int, birth_rate: float, death_rate: float,
                     rng: random.Random,
                     leaf_prefix: str) -> PhyloTree | None:
    root = PhyloNode("", 0.0)
    first = PhyloNode("", 0.0)
    second = PhyloNode("", 0.0)
    root.add_child(first)
    root.add_child(second)
    extant: list[PhyloNode] = [first, second]
    total_rate_per_lineage = birth_rate + death_rate

    while len(extant) < num_leaves:
        if not extant:
            return None
        total_rate = total_rate_per_lineage * len(extant)
        wait = rng.expovariate(total_rate)
        for lineage in extant:
            lineage.branch_length += wait
        victim_index = rng.randrange(len(extant))
        lineage = extant.pop(victim_index)
        if rng.random() < birth_rate / total_rate_per_lineage:
            left = PhyloNode("", 0.0)
            right = PhyloNode("", 0.0)
            lineage.add_child(left)
            lineage.add_child(right)
            extant.extend((left, right))
        elif lineage.parent is not None and not lineage.children:
            # Death: drop the lineage entirely (prune later via rebuild).
            lineage.name = "__dead__"

    # Final stretch so leaves are contemporaneous-ish.
    wait = rng.expovariate(total_rate_per_lineage * len(extant))
    for index, lineage in enumerate(extant):
        lineage.branch_length += wait
        lineage.name = f"{leaf_prefix}_{index:04d}"

    pruned = _prune_dead(root)
    if pruned is None:
        return None
    if sum(1 for __ in pruned.leaves()) != num_leaves:
        return None
    pruned.branch_length = 0.0
    return PhyloTree(pruned)


def _prune_dead(node: PhyloNode) -> PhyloNode | None:
    if node.is_leaf:
        if node.name == "__dead__" or not node.name:
            return None
        return PhyloNode(node.name, node.branch_length)
    kept = [built for child in node.children
            if (built := _prune_dead(child)) is not None]
    if not kept:
        return None
    if len(kept) == 1:
        only = kept[0]
        only.branch_length += node.branch_length
        return only
    fresh = PhyloNode(node.name, node.branch_length)
    for child in kept:
        fresh.add_child(child)
    return fresh


@dataclass(frozen=True)
class EvolutionModel:
    """Site-independent substitution model derived from a score matrix.

    Each site mutates along a branch of length ``t`` with probability
    ``1 - exp(-rate * t)``; a mutating residue is replaced by a residue
    sampled with weight ``exp(score(a, b) / temperature)`` for ``b != a``,
    so exchanges that the substitution matrix favours happen more often.
    """

    matrix: SubstitutionMatrix = BLOSUM62
    rate: float = 1.0
    temperature: float = 2.0

    def transition_weights(self, residue: str) -> list[float]:
        return [
            math.exp(self.matrix.score(residue, other) / self.temperature)
            if other != residue else 0.0
            for other in alphabet.AMINO_ACIDS
        ]

    def evolve(self, residues: str, branch_length: float,
               rng: random.Random) -> str:
        """Evolve *residues* along one branch."""
        if branch_length < 0:
            raise TreeError("negative branch length")
        p_mutate = 1.0 - math.exp(-self.rate * branch_length)
        if p_mutate <= 0.0:
            return residues
        out: list[str] = []
        for residue in residues:
            if rng.random() >= p_mutate:
                out.append(residue)
                continue
            weights = self.transition_weights(residue)
            out.append(
                rng.choices(alphabet.AMINO_ACIDS, weights=weights, k=1)[0]
            )
        return "".join(out)


def random_root_sequence(length: int, rng: random.Random) -> str:
    """A uniform-random canonical sequence of the given length."""
    if length < 1:
        raise TreeError("sequence length must be positive")
    return "".join(rng.choice(alphabet.AMINO_ACIDS) for _ in range(length))


def evolve_sequences(tree: PhyloTree,
                     root_sequence: str | None = None,
                     length: int = 120,
                     model: EvolutionModel | None = None,
                     seed: int | None = None) -> list[ProteinSequence]:
    """Evolve a protein family along *tree*.

    Returns one sequence per leaf, named after the leaf. The leaf order
    matches :meth:`PhyloTree.leaf_names`.
    """
    rng = random.Random(seed)
    model = model or EvolutionModel()
    if root_sequence is None:
        root_sequence = random_root_sequence(length, rng)

    sequences: dict[str, str] = {}
    assigned: dict[int, str] = {tree.root.node_id: root_sequence}
    for node in tree.preorder():
        if node.is_root:
            continue
        parent_seq = assigned[node.parent.node_id]
        child_seq = model.evolve(parent_seq, node.branch_length, rng)
        assigned[node.node_id] = child_seq
        if node.is_leaf:
            sequences[node.name] = child_seq
    return [
        ProteinSequence(name, sequences[name])
        for name in tree.leaf_names()
    ]
