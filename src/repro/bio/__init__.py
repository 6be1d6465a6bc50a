"""Phylogenetics substrate: sequences, alignment, distances, trees.

This subpackage implements everything DrugTree needs from classic
molecular phylogenetics, from FASTA parsing up to bootstrapped
neighbor-joining trees.
"""

from repro.bio.align import PairwiseAlignment, global_align, local_align
from repro.bio.bootstrap import bootstrap_support
from repro.bio.consensus import majority_rule_consensus
from repro.bio.draw import ascii_tree
from repro.bio.distance import (
    DistanceMatrix,
    distance_matrix,
    distance_matrix_from_msa,
    kimura_distance,
    p_distance,
)
from repro.bio.matrices import BLOSUM62, PAM250, SubstitutionMatrix
from repro.bio.msa import MultipleAlignment, progressive_align
from repro.bio.nj import neighbor_joining
from repro.bio.seq import ProteinSequence, parse_fasta, write_fasta
from repro.bio.seqsearch import KmerIndex, SearchHit
from repro.bio.simulate import EvolutionModel, birth_death_tree, evolve_sequences
from repro.bio.tree import PhyloNode, PhyloTree, parse_newick
from repro.bio.upgma import upgma

__all__ = [
    "BLOSUM62",
    "PAM250",
    "DistanceMatrix",
    "EvolutionModel",
    "MultipleAlignment",
    "PairwiseAlignment",
    "PhyloNode",
    "PhyloTree",
    "ProteinSequence",
    "SubstitutionMatrix",
    "KmerIndex",
    "SearchHit",
    "ascii_tree",
    "birth_death_tree",
    "bootstrap_support",
    "distance_matrix",
    "distance_matrix_from_msa",
    "evolve_sequences",
    "global_align",
    "kimura_distance",
    "local_align",
    "majority_rule_consensus",
    "neighbor_joining",
    "p_distance",
    "parse_fasta",
    "parse_newick",
    "progressive_align",
    "upgma",
    "write_fasta",
]
