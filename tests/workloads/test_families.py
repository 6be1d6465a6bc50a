"""Tests for synthetic protein family generation."""

import pytest

from repro.errors import WorkloadError
from repro.workloads import make_family
from repro.workloads.families import FAMILY_POOL, name_internal_clades
from repro.bio import parse_newick


class TestMakeFamily:
    def test_sizes(self):
        family = make_family(12, seed=0, sequence_length=60)
        assert family.tree.leaf_count == 12
        assert len(family.sequences) == 12
        assert all(len(seq) == 60 for seq in family.sequences)

    def test_deterministic(self):
        a = make_family(10, seed=5)
        b = make_family(10, seed=5)
        assert a.tree.to_newick() == b.tree.to_newick()
        assert a.sequences == b.sequences
        assert a.organisms == b.organisms

    def test_every_leaf_has_metadata(self):
        family = make_family(25, seed=1)
        for leaf in family.protein_ids:
            assert family.organisms[leaf]
            assert family.families[leaf] in FAMILY_POOL or \
                family.families[leaf]

    def test_organisms_unique_per_leaf_up_to_pool(self):
        family = make_family(15, seed=2)
        assert len(set(family.organisms.values())) == 15

    def test_large_tree_cycles_organism_pool(self):
        family = make_family(30, seed=3)
        assert any("str." in organism
                   for organism in family.organisms.values())

    def test_clades_named_in_preorder(self):
        family = make_family(10, seed=0)
        assert family.clade_names
        assert family.clade_names[0] == "clade_0000"
        # Every internal node is named.
        internal = [node for node in family.tree.preorder()
                    if not node.is_leaf]
        assert all(node.name for node in internal)

    def test_family_assignment_follows_top_clades(self):
        family = make_family(20, seed=4)
        for child in family.tree.root.children:
            leaf_families = {
                family.families[leaf.name] for leaf in child.leaves()
            }
            assert len(leaf_families) == 1

    def test_branch_scale_shrinks_divergence(self):
        compact = make_family(10, seed=6, branch_scale=0.05)
        spread = make_family(10, seed=6, branch_scale=1.0)
        leaves = compact.tree.leaf_names()[:2]
        assert compact.tree.distance(*leaves) < \
            spread.tree.distance(*leaves)

    def test_invalid_parameters(self):
        with pytest.raises(WorkloadError):
            make_family(1)
        with pytest.raises(WorkloadError):
            make_family(5, branch_scale=0.0)


class TestNameInternalClades:
    def test_existing_names_preserved(self):
        tree = parse_newick("((a,b)keep,(c,d));")
        names = name_internal_clades(tree)
        assert "keep" in names
        assert tree.find("keep").leaf_count() == 2

    def test_names_are_stable_handles(self):
        tree = parse_newick("((a,b),(c,d));")
        names = name_internal_clades(tree)
        for name in names:
            assert tree.find(name) is not None
