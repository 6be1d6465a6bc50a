"""Tests for bootstrap support values."""

import random

import pytest

from repro.bio import (
    MultipleAlignment,
    bootstrap_support,
    neighbor_joining,
    parse_newick,
    progressive_align,
)
from repro.bio.bootstrap import resample_alignment
from repro.bio.simulate import birth_death_tree, evolve_sequences
from repro.bio.distance import DistanceMatrix, distance_matrix_from_msa
from repro.errors import TreeError


def _family(n_leaves=6, seed=0, length=120):
    tree = birth_death_tree(n_leaves, seed=seed)
    # Shrink branch lengths for moderate divergence.
    for node in tree.preorder():
        node.branch_length *= 0.3
    seqs = evolve_sequences(tree, length=length, seed=seed + 1)
    return tree, progressive_align(seqs)


class TestResample:
    def test_preserves_shape(self):
        _, msa = _family()
        draw = resample_alignment(msa, random.Random(0))
        assert draw.names == msa.names
        assert draw.width == msa.width

    def test_columns_come_from_original(self):
        msa = MultipleAlignment(("a", "b"), ("MK", "MA"))
        draw = resample_alignment(msa, random.Random(0))
        original_columns = {msa.column(i) for i in range(msa.width)}
        drawn_columns = {draw.column(i) for i in range(draw.width)}
        assert drawn_columns <= original_columns


class TestBootstrapSupport:
    def test_support_values_in_unit_interval(self):
        tree, msa = _family()
        reference = neighbor_joining(
            distance_matrix_from_msa(msa.names, msa.rows, correction="p")
        )
        support = bootstrap_support(reference, msa, replicates=10, seed=0)
        assert support
        assert all(0.0 <= v <= 1.0 for v in support.values())

    def test_strong_signal_gets_high_support(self):
        """A family with low divergence should bootstrap cleanly."""
        tree, msa = _family(n_leaves=5, seed=3, length=300)
        reference = neighbor_joining(
            distance_matrix_from_msa(msa.names, msa.rows, correction="p")
        )
        support = bootstrap_support(reference, msa, replicates=20, seed=1)
        # At least one split should be well supported.
        assert max(support.values()) >= 0.5

    def test_deterministic_with_seed(self):
        tree, msa = _family()
        reference = neighbor_joining(
            distance_matrix_from_msa(msa.names, msa.rows, correction="p")
        )
        s1 = bootstrap_support(reference, msa, replicates=5, seed=9)
        s2 = bootstrap_support(reference, msa, replicates=5, seed=9)
        assert s1 == s2

    def test_mismatched_names_rejected(self):
        tree, msa = _family()
        other = parse_newick("((x,y),z);")
        with pytest.raises(TreeError):
            bootstrap_support(other, msa, replicates=2)

    def test_zero_replicates_rejected(self):
        tree, msa = _family()
        with pytest.raises(TreeError):
            bootstrap_support(tree, msa, replicates=0)

