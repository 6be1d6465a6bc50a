"""Phylogenetics substrate: sequences, alignment, distances, trees.

This subpackage implements the protein-motivated tree DrugTree needs:
FASTA parsing, Needleman–Wunsch alignment, Kimura distances and a
midpoint-rooted neighbor-joining tree, plus the birth–death simulator
that generates synthetic families.
"""

from repro.bio.align import PairwiseAlignment, global_align
from repro.bio.draw import ascii_tree
from repro.bio.distance import (
    DistanceMatrix,
    distance_matrix,
    kimura_distance,
    p_distance,
)
from repro.bio.matrices import BLOSUM62, SubstitutionMatrix
from repro.bio.nj import neighbor_joining
from repro.bio.seq import ProteinSequence, parse_fasta, write_fasta
from repro.bio.simulate import EvolutionModel, birth_death_tree, evolve_sequences
from repro.bio.tree import PhyloNode, PhyloTree, parse_newick

__all__ = [
    "BLOSUM62",
    "DistanceMatrix",
    "EvolutionModel",
    "PairwiseAlignment",
    "PhyloNode",
    "PhyloTree",
    "ProteinSequence",
    "SubstitutionMatrix",
    "ascii_tree",
    "birth_death_tree",
    "distance_matrix",
    "evolve_sequences",
    "global_align",
    "kimura_distance",
    "neighbor_joining",
    "p_distance",
    "parse_fasta",
    "parse_newick",
    "write_fasta",
]
