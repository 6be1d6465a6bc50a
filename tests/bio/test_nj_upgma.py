"""Tests for neighbor-joining and UPGMA tree construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bio import DistanceMatrix, neighbor_joining, upgma
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


class TestUpgma:
    def _ultrametric_matrix(self):
        # Clock-like tree: ((a:2,b:2):1,(c:1.5,d:1.5):1.5)
        values = np.array([
            [0.0, 4.0, 6.0, 6.0],
            [4.0, 0.0, 6.0, 6.0],
            [6.0, 6.0, 0.0, 3.0],
            [6.0, 6.0, 3.0, 0.0],
        ])
        return DistanceMatrix(("a", "b", "c", "d"), values)

    def test_recovers_ultrametric_tree(self):
        tree = upgma(self._ultrametric_matrix())
        assert tree.distance("a", "b") == pytest.approx(4.0)
        assert tree.distance("c", "d") == pytest.approx(3.0)
        assert tree.distance("a", "c") == pytest.approx(6.0)

    def test_result_is_ultrametric(self):
        tree = upgma(self._ultrametric_matrix())
        depths = {
            leaf.name: leaf.distance_to_root() for leaf in tree.leaves()
        }
        values = list(depths.values())
        assert all(abs(v - values[0]) < 1e-9 for v in values)

    def test_result_is_binary_and_rooted(self):
        tree = upgma(self._ultrametric_matrix())
        assert tree.is_binary()
        assert len(tree.root.children) == 2

    def test_one_taxon_rejected(self):
        dm = DistanceMatrix(("a",), np.zeros((1, 1)))
        with pytest.raises(TreeError):
            upgma(dm)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=3, max_value=20), st.integers(0, 10_000))
    def test_property_upgma_always_ultrametric(self, n, seed):
        """UPGMA output is ultrametric regardless of the input matrix."""
        tree = birth_death_tree(n, seed=seed)
        names, matrix = tree.cophenetic_matrix()
        clustered = upgma(DistanceMatrix(names, matrix))
        depths = [leaf.distance_to_root() for leaf in clustered.leaves()]
        assert max(depths) - min(depths) < 1e-9

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=3, max_value=15), st.integers(0, 10_000))
    def test_property_all_leaves_present(self, n, seed):
        tree = birth_death_tree(n, seed=seed)
        names, matrix = tree.cophenetic_matrix()
        dm = DistanceMatrix(names, matrix)
        assert sorted(upgma(dm).leaf_names()) == sorted(names)
        assert sorted(neighbor_joining(dm).leaf_names()) == sorted(names)
