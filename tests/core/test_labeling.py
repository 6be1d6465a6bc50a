"""Tests for Euler-tour interval labeling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bio import parse_newick
from repro.bio.simulate import birth_death_tree
from repro.core.labeling import IntervalLabeling
from repro.errors import TreeError
from repro.workloads.families import name_internal_clades
from tests.bio.trees import caterpillar


@pytest.fixture
def labeled():
    tree = parse_newick("((a:1,b:1)ab:1,((c:1,d:1)cd:1,e:1)cde:1)root;")
    return IntervalLabeling(tree)


class TestLabels:
    def test_root_covers_everything(self, labeled):
        root = labeled.label_of("root")
        assert root.pre == 0
        assert root.subtree_size == labeled.tree.node_count
        assert root.leaf_count == 5

    def test_leaf_positions_in_tree_order(self, labeled):
        assert [labeled.leaf_position(n) for n in "abcde"] == [0, 1, 2, 3, 4]
        assert labeled.leaf_name_at(2) == "c"

    def test_leaf_range_of_internal_node(self, labeled):
        assert labeled.leaf_range("cd") == (2, 4)
        assert labeled.leaves_under("cde") == ["c", "d", "e"]

    def test_containment_matches_ancestry(self, labeled):
        assert labeled.is_ancestor("ab", "a")
        assert labeled.is_ancestor("cde", "cd")
        assert labeled.is_ancestor("root", "e")
        assert not labeled.is_ancestor("ab", "c")
        assert not labeled.is_ancestor("cd", "cde")

    def test_self_containment(self, labeled):
        assert labeled.is_ancestor("cd", "cd")

    def test_unknown_name(self, labeled):
        with pytest.raises(TreeError):
            labeled.label_of("zz")

    def test_leaf_position_rejects_internal(self, labeled):
        with pytest.raises(TreeError, match="not a leaf"):
            labeled.leaf_position("cd")

    def test_depths(self, labeled):
        assert labeled.label_of("root").depth == 0
        assert labeled.label_of("ab").depth == 1
        assert labeled.label_of("c").depth == 3

    def test_deep_tree_does_not_recurse(self):
        tree = caterpillar(3000)
        labeling = IntervalLabeling(tree)
        assert labeling.leaf_count == 3000


class TestProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=3, max_value=40), st.integers(0, 10_000))
    def test_property_interval_containment_equals_traversal(self, n, seed):
        """The interval predicate must agree with actual tree traversal
        for every (internal node, leaf) pair."""
        tree = birth_death_tree(n, seed=seed)
        name_internal_clades(tree)
        labeling = IntervalLabeling(tree)
        for node in tree.preorder():
            if node.is_leaf or not node.name:
                continue
            truth = {leaf.name for leaf in node.leaves()}
            by_interval = set(labeling.leaves_under(node.name))
            assert by_interval == truth

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=3, max_value=30), st.integers(0, 10_000))
    def test_property_intervals_nest_or_disjoint(self, n, seed):
        """Any two subtree intervals either nest or are disjoint."""
        tree = birth_death_tree(n, seed=seed)
        labeling = IntervalLabeling(tree)
        labels = [labeling.label_of_node(node) for node in tree.preorder()]
        for first in labels:
            for second in labels:
                a = (first.pre, first.post)
                b = (second.pre, second.post)
                nested = (a[0] <= b[0] and b[1] <= a[1]) or \
                         (b[0] <= a[0] and a[1] <= b[1])
                disjoint = a[1] <= b[0] or b[1] <= a[0]
                assert nested or disjoint

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=40), st.integers(0, 10_000))
    def test_property_leaf_positions_dense(self, n, seed):
        tree = birth_death_tree(n, seed=seed)
        labeling = IntervalLabeling(tree)
        positions = sorted(
            labeling.leaf_position(name) for name in tree.leaf_names()
        )
        assert positions == list(range(n))


class TestIntervalEdgeCases:
    """The interval contract the cluster partitioner depends on."""

    @pytest.fixture
    def labeled(self):
        tree = parse_newick(
            "((a:1,b:1)ab:1,((c:1,d:1)cd:1,e:1)cde:1)root;"
        )
        return IntervalLabeling(tree)

    def test_single_leaf_clade_interval(self, labeled):
        # A leaf's own interval is the degenerate half-open [p, p+1).
        for name in "abcde":
            label = labeled.label_of(name)
            position = labeled.leaf_position(name)
            assert (label.leaf_low, label.leaf_high) == \
                (position, position + 1)
            assert label.leaf_count == 1

    def test_root_interval_spans_all_leaves(self, labeled):
        root = labeled.label_of("root")
        assert (root.leaf_low, root.leaf_high) == \
            (0, labeled.leaf_count)

    def test_sibling_intervals_are_half_open_and_disjoint(self, labeled):
        ab = labeled.label_of("ab")
        cde = labeled.label_of("cde")
        # Half-open: the boundary leaf belongs to exactly one clade.
        assert ab.leaf_high == cde.leaf_low
        assert labeled.leaf_name_at(ab.leaf_high) == "c"
        assert "c" not in labeled.leaves_under("ab")
        assert "c" in labeled.leaves_under("cde")

    def test_children_partition_parent_interval(self, labeled):
        for node in labeled.tree.preorder():
            children = [labeled.label_of_node(child)
                        for child in node.children]
            if not children:
                continue
            parent = labeled.label_of_node(node)
            children.sort(key=lambda label: label.leaf_low)
            assert children[0].leaf_low == parent.leaf_low
            assert children[-1].leaf_high == parent.leaf_high
            for left, right in zip(children, children[1:]):
                assert left.leaf_high == right.leaf_low

    def test_relabeling_after_tree_mutation(self, labeled):
        # Graft a new leaf under 'cd'; a fresh labeling must shift
        # every position at or right of it while staying dense,
        # half-open, and non-overlapping.
        from repro.bio.tree import PhyloNode, PhyloTree

        tree = labeled.tree
        tree.find("cd").add_child(PhyloNode("d2", branch_length=1.0))
        relabeled = IntervalLabeling(PhyloTree(tree.root))
        assert relabeled.leaf_count == labeled.leaf_count + 1
        positions = sorted(relabeled.leaf_position(name)
                           for name in relabeled.tree.leaf_names())
        assert positions == list(range(relabeled.leaf_count))
        # The grafted leaf landed inside its parent clade's interval...
        low, high = relabeled.leaf_range("cd")
        assert low <= relabeled.leaf_position("d2") < high
        assert relabeled.leaves_under("cd") == ["c", "d", "d2"]
        # ...and everything to its right shifted by exactly one.
        assert relabeled.leaf_position("e") == \
            labeled.leaf_position("e") + 1
        assert relabeled.leaf_position("a") == labeled.leaf_position("a")
        # The old labeling is a snapshot: it still answers for the
        # pre-mutation world and does not know the new leaf.
        assert not labeled.has_name("d2")
