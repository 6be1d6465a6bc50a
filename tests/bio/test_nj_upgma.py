"""Tests for neighbor-joining tree construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bio import DistanceMatrix, neighbor_joining
from repro.bio.simulate import birth_death_tree
from repro.errors import TreeError


def _wikipedia_nj_matrix():
    """The worked 5-taxon example from the NJ literature."""
    values = np.array([
        [0, 5, 9, 9, 8],
        [5, 0, 10, 10, 9],
        [9, 10, 0, 8, 7],
        [9, 10, 8, 0, 3],
        [8, 9, 7, 3, 0],
    ], dtype=float)
    return DistanceMatrix(("a", "b", "c", "d", "e"), values)


class TestNeighborJoining:
    def test_two_taxa(self):
        dm = DistanceMatrix(("a", "b"), np.array([[0.0, 4.0], [4.0, 0.0]]))
        tree = neighbor_joining(dm)
        assert sorted(tree.leaf_names()) == ["a", "b"]
        assert tree.distance("a", "b") == pytest.approx(4.0)

    def test_one_taxon_rejected(self):
        dm = DistanceMatrix(("a",), np.zeros((1, 1)))
        with pytest.raises(TreeError):
            neighbor_joining(dm)

    def test_worked_example_distances(self):
        """On an additive matrix, NJ tree distances equal the input."""
        dm = _wikipedia_nj_matrix()
        tree = neighbor_joining(dm)
        for i, name_i in enumerate(dm.names):
            for j, name_j in enumerate(dm.names):
                if i < j:
                    assert tree.distance(name_i, name_j) == pytest.approx(
                        dm.values[i, j]
                    )

    def test_worked_example_topology(self):
        tree = neighbor_joining(_wikipedia_nj_matrix())
        splits = tree.bipartitions()
        assert frozenset({"a", "b"}) in splits
        assert frozenset({"d", "e"}) in splits

    def test_three_taxa_limbs(self):
        """Three taxa solve exactly: limbs 1, 2 and 3 give the pairwise
        distances 3, 4 and 5."""
        values = np.array([[0.0, 3.0, 4.0], [3.0, 0.0, 5.0],
                           [4.0, 5.0, 0.0]])
        tree = neighbor_joining(DistanceMatrix(("a", "b", "c"), values))
        limbs = {node.name: node.branch_length for node in tree.leaves()}
        assert limbs == pytest.approx({"a": 1.0, "b": 2.0, "c": 3.0})
        assert len(tree.root.children) == 3

    def test_identical_taxa_are_joined_at_zero(self):
        values = np.array([
            [0.0, 0.0, 4.0, 5.0],
            [0.0, 0.0, 4.0, 5.0],
            [4.0, 4.0, 0.0, 3.0],
            [5.0, 5.0, 3.0, 0.0],
        ])
        tree = neighbor_joining(DistanceMatrix(("a", "b", "c", "d"), values))
        assert frozenset({"a", "b"}) in tree.bipartitions()
        assert tree.distance("a", "b") == pytest.approx(0.0)

    def test_input_matrix_is_not_changed(self):
        dm = _wikipedia_nj_matrix()
        before = dm.values.copy()
        neighbor_joining(dm)
        assert np.array_equal(dm.values, before)

    def test_root_is_trifurcation(self):
        tree = neighbor_joining(_wikipedia_nj_matrix())
        assert len(tree.root.children) == 3

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=4, max_value=25), st.integers(0, 10_000))
    def test_property_recovers_random_additive_trees(self, n, seed):
        """NJ must reconstruct the generating tree from tree distances."""
        true_tree = birth_death_tree(n, seed=seed)
        names, matrix = true_tree.cophenetic_matrix()
        rebuilt = neighbor_joining(DistanceMatrix(names, matrix))
        assert rebuilt.robinson_foulds(true_tree) == 0
        # And path distances are preserved, not just topology.
        names2, matrix2 = rebuilt.cophenetic_matrix()
        order = [names2.index(name) for name in names]
        assert np.allclose(matrix, matrix2[np.ix_(order, order)], atol=1e-6)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=3, max_value=15), st.integers(0, 10_000))
    def test_property_all_leaves_present(self, n, seed):
        tree = birth_death_tree(n, seed=seed)
        names, matrix = tree.cophenetic_matrix()
        dm = DistanceMatrix(names, matrix)
        assert sorted(neighbor_joining(dm).leaf_names()) == sorted(names)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=3, max_value=12), st.integers(0, 10_000))
    def test_property_branch_lengths_never_negative(self, n, seed):
        """On non-additive distances NJ's limb estimates can go negative;
        they are clamped at zero."""
        rng = np.random.default_rng(seed)
        upper = np.triu(rng.uniform(0.1, 5.0, size=(n, n)), 1)
        names = tuple(f"t{i}" for i in range(n))
        tree = neighbor_joining(DistanceMatrix(names, upper + upper.T))
        assert all(node.branch_length >= 0.0 for node in tree.preorder())
        assert sorted(tree.leaf_names()) == sorted(names)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=4, max_value=15), st.integers(0, 10_000),
           st.randoms(use_true_random=False))
    def test_property_taxon_order_does_not_matter(self, n, seed, rnd):
        """Listing the taxa of an additive matrix in another order
        rebuilds the same tree."""
        true_tree = birth_death_tree(n, seed=seed)
        names, matrix = true_tree.cophenetic_matrix()
        order = list(range(n))
        rnd.shuffle(order)
        shuffled = DistanceMatrix(tuple(names[i] for i in order),
                                  matrix[np.ix_(order, order)])
        assert neighbor_joining(shuffled).robinson_foulds(true_tree) == 0
