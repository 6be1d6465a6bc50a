"""Tests for the phylogenetic tree structure and Newick I/O."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bio import PhyloNode, PhyloTree, parse_newick
from repro.bio.simulate import birth_death_tree
from repro.errors import TreeError
from tests.bio.trees import caterpillar


@pytest.fixture
def small_tree():
    # ((a:1,b:2):0.5,(c:3,(d:1,e:1):1):0.5);
    return parse_newick("((a:1,b:2):0.5,(c:3,(d:1,e:1):1):0.5);")


class TestStructure:
    def test_counts(self, small_tree):
        assert small_tree.leaf_count == 5
        assert small_tree.node_count == 9

    def test_leaf_names_in_preorder(self, small_tree):
        assert small_tree.leaf_names() == ["a", "b", "c", "d", "e"]

    def test_find(self, small_tree):
        node = small_tree.find("d")
        assert node.is_leaf
        assert node.branch_length == 1.0

    def test_find_missing(self, small_tree):
        with pytest.raises(TreeError):
            small_tree.find("zz")

    def test_duplicate_leaves_rejected(self):
        with pytest.raises(TreeError, match="duplicate"):
            parse_newick("((a,a),b);")

    def test_unnamed_leaf_rejected(self):
        with pytest.raises(TreeError, match="named"):
            parse_newick("((a,),b);")

    def test_is_binary(self, small_tree):
        assert small_tree.is_binary()
        trifurcation = parse_newick("(a,b,c);")
        assert not trifurcation.is_binary()

    def test_add_child_rejects_reparenting(self):
        parent = PhyloNode("p")
        child = PhyloNode("c")
        parent.add_child(child)
        other = PhyloNode("o")
        with pytest.raises(TreeError, match="already has a parent"):
            other.add_child(child)

    def test_negative_branch_rejected(self):
        with pytest.raises(TreeError):
            PhyloNode("x", -1.0)


class TestTraversals:
    def test_preorder_parents_first(self, small_tree):
        seen = set()
        for node in small_tree.preorder():
            if node.parent is not None:
                assert node.parent.node_id in seen
            seen.add(node.node_id)

    def test_postorder_children_first(self, small_tree):
        seen = set()
        for node in small_tree.postorder():
            for child in node.children:
                assert child.node_id in seen
            seen.add(node.node_id)

    def test_traversals_cover_all_nodes(self, small_tree):
        pre = {n.node_id for n in small_tree.preorder()}
        post = {n.node_id for n in small_tree.postorder()}
        assert pre == post
        assert len(pre) == small_tree.node_count

    def test_deep_tree_traversal_does_not_recurse(self):
        # 2000-leaf caterpillar would blow the default recursion limit
        # if traversals were recursive.
        tree = caterpillar(2000)
        assert sum(1 for _ in tree.postorder()) == tree.node_count


class TestRelationships:
    def test_lca_of_siblings(self, small_tree):
        lca = small_tree.lca(["d", "e"])
        assert {child.name for child in lca.children} == {"d", "e"}

    def test_lca_spanning_root(self, small_tree):
        assert small_tree.lca(["a", "e"]) is small_tree.root

    def test_lca_single_leaf(self, small_tree):
        assert small_tree.lca(["a"]).name == "a"

    def test_patristic_distance(self, small_tree):
        assert small_tree.distance("a", "b") == pytest.approx(3.0)
        assert small_tree.distance("a", "c") == pytest.approx(5.0)
        assert small_tree.distance("d", "e") == pytest.approx(2.0)

    def test_cophenetic_matches_pairwise(self, small_tree):
        names, matrix = small_tree.cophenetic_matrix()
        for i, name_i in enumerate(names):
            for j, name_j in enumerate(names):
                expected = (
                    0.0 if i == j else small_tree.distance(name_i, name_j)
                )
                assert matrix[i, j] == pytest.approx(expected)

    def test_clades(self, small_tree):
        clades = set(small_tree.clades().values())
        assert frozenset({"d", "e"}) in clades
        assert frozenset({"c", "d", "e"}) in clades
        assert frozenset({"a", "b", "c", "d", "e"}) in clades


class TestEditing:
    def test_copy_is_deep(self, small_tree):
        clone = small_tree.copy()
        clone.find("a").branch_length = 99.0
        assert small_tree.find("a").branch_length == 1.0

    def test_copy_preserves_topology(self, small_tree):
        assert small_tree.copy().robinson_foulds(small_tree) == 0


class TestMidpointRooting:
    def test_midpoint_preserves_leaves_and_distances(self, small_tree):
        rooted = small_tree.reroot_at_midpoint()
        assert sorted(rooted.leaf_names()) == sorted(small_tree.leaf_names())
        for a, b in [("a", "b"), ("a", "c"), ("d", "e"), ("b", "e")]:
            assert rooted.distance(a, b) == pytest.approx(
                small_tree.distance(a, b)
            )

    def test_midpoint_balances_deepest_pair(self, small_tree):
        rooted = small_tree.reroot_at_midpoint()
        names, matrix = rooted.cophenetic_matrix()
        i, j = np.unravel_index(np.argmax(matrix), matrix.shape)
        deep_a, deep_b = names[i], names[j]
        half = matrix[i, j] / 2
        dist_a = rooted.find(deep_a).distance_to_root()
        dist_b = rooted.find(deep_b).distance_to_root()
        assert dist_a == pytest.approx(half, abs=1e-9)
        assert dist_b == pytest.approx(half, abs=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=4, max_value=20), st.integers(0, 1000))
    def test_property_midpoint_is_distance_preserving(self, n, seed):
        tree = birth_death_tree(n, seed=seed)
        rooted = tree.reroot_at_midpoint()
        names, original = tree.cophenetic_matrix()
        names2, rerooted = rooted.cophenetic_matrix()
        order = [names2.index(name) for name in names]
        assert np.allclose(original, rerooted[np.ix_(order, order)])


class TestBipartitionsAndRF:
    def test_identical_trees(self, small_tree):
        assert small_tree.robinson_foulds(small_tree.copy()) == 0

    def test_known_rf(self):
        t1 = parse_newick("((a,b),(c,d));")
        t2 = parse_newick("((a,c),(b,d));")
        assert t1.robinson_foulds(t2) == 2

    def test_rf_requires_same_taxa(self, small_tree):
        other = parse_newick("((a,b),(c,d));")
        with pytest.raises(TreeError):
            small_tree.robinson_foulds(other)

    def test_star_tree_has_no_bipartitions(self):
        star = parse_newick("(a,b,c,d);")
        assert star.bipartitions() == set()


class TestNewick:
    def test_roundtrip_topology_and_lengths(self, small_tree):
        text = small_tree.to_newick()
        parsed = parse_newick(text)
        assert parsed.robinson_foulds(small_tree) == 0
        assert parsed.distance("a", "e") == pytest.approx(
            small_tree.distance("a", "e")
        )

    def test_quoted_labels(self):
        tree = PhyloTree(PhyloNode("", children=[
            PhyloNode("taxon one", 1.0), PhyloNode("O'Brien", 2.0),
        ]))
        parsed = parse_newick(tree.to_newick())
        assert sorted(parsed.leaf_names()) == ["O'Brien", "taxon one"]

    def test_whitespace_tolerated(self):
        parsed = parse_newick(" ( a:1 , b:2 ) ; ")
        assert parsed.leaf_names() == ["a", "b"]

    def test_missing_semicolon(self):
        with pytest.raises(TreeError, match=";"):
            parse_newick("(a,b)")

    def test_trailing_garbage(self):
        with pytest.raises(TreeError, match="trailing"):
            parse_newick("(a,b);x")

    def test_unbalanced_parens(self):
        with pytest.raises(TreeError):
            parse_newick("((a,b);")

    def test_bad_branch_length(self):
        with pytest.raises(TreeError):
            parse_newick("(a:xyz,b);")

    def test_negative_branch_length(self):
        with pytest.raises(TreeError):
            parse_newick("(a:-1,b);")

    def test_empty_text(self):
        with pytest.raises(TreeError):
            parse_newick("   ")

    def test_internal_labels_preserved(self):
        parsed = parse_newick("((a,b)clade1,c);")
        assert parsed.find("clade1").leaf_count() == 2

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=40), st.integers(0, 10_000))
    def test_property_roundtrip_random_trees(self, n, seed):
        tree = birth_death_tree(n, seed=seed)
        parsed = parse_newick(tree.to_newick())
        assert parsed.robinson_foulds(tree) == 0
        assert sorted(n.branch_length for n in parsed.preorder()) == \
            pytest.approx(sorted(n.branch_length for n in tree.preorder()),
                          rel=1e-4, abs=1e-9)


class TestNewickFuzz:
    @settings(max_examples=150, deadline=None)
    @given(st.text(alphabet="(),;:abc10.' ", max_size=40))
    def test_property_parser_never_crashes_uncontrolled(self, text):
        """Arbitrary junk either parses or raises TreeError — never an
        unhandled exception."""
        try:
            parse_newick(text)
        except TreeError:
            pass

