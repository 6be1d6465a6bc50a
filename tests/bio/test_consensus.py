"""Tests for consensus trees."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bio import majority_rule_consensus, parse_newick
from repro.bio.simulate import birth_death_tree
from repro.errors import TreeError


def _trees():
    return [
        parse_newick("((a,b),(c,d),e);"),
        parse_newick("((a,b),((c,d),e));"),
        parse_newick("((a,c),(b,d),e);"),
    ]


class TestMajorityRule:
    def test_majority_clades_present(self):
        consensus = majority_rule_consensus(_trees())
        clades = set(consensus.clades().values())
        assert frozenset({"a", "b"}) in clades
        assert frozenset({"c", "d"}) in clades

    def test_minority_clades_absent(self):
        consensus = majority_rule_consensus(_trees())
        clades = set(consensus.clades().values())
        assert frozenset({"c", "d", "e"}) not in clades  # only 1/3
        assert frozenset({"a", "c"}) not in clades

    def test_support_labels(self):
        consensus = majority_rule_consensus(_trees())
        (node,) = [node for node in consensus.preorder()
                   if {leaf.name for leaf in node.leaves()} == {"a", "b"}]
        assert float(node.name) / 100.0 == pytest.approx(0.67)

    def test_all_taxa_kept(self):
        consensus = majority_rule_consensus(_trees())
        assert sorted(consensus.leaf_names()) == ["a", "b", "c", "d", "e"]

    def test_identical_trees_give_input_topology(self):
        tree = parse_newick("((a,b),((c,d),e));")
        consensus = majority_rule_consensus([tree, tree.copy(),
                                             tree.copy()])
        assert consensus.robinson_foulds(tree) == 0

    def test_empty_collection_rejected(self):
        with pytest.raises(TreeError):
            majority_rule_consensus([])

    def test_mismatched_taxa_rejected(self):
        trees = [parse_newick("((a,b),c);"), parse_newick("((a,b),d);")]
        with pytest.raises(TreeError, match="same taxa"):
            majority_rule_consensus(trees)

    def test_nested_majorities_nest_in_output(self):
        trees = [
            parse_newick("(((a,b),c),(d,e));"),
            parse_newick("(((a,b),c),(d,e));"),
            parse_newick("(((a,c),b),(d,e));"),
        ]
        consensus = majority_rule_consensus(trees)
        clades = set(consensus.clades().values())
        assert frozenset({"a", "b", "c"}) in clades  # 3/3
        assert frozenset({"a", "b"}) in clades       # 2/3, nested inside


class TestProperties:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(4, 12), st.integers(0, 500))
    def test_property_self_consensus_is_identity(self, n, seed):
        tree = birth_death_tree(n, seed=seed)
        consensus = majority_rule_consensus([tree, tree.copy()])
        assert consensus.robinson_foulds(tree) == 0
