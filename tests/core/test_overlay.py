"""Tests for the overlay tables and clade aggregates."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bio import parse_newick
from repro.bio.simulate import birth_death_tree
from repro.chem import ActivityType, BindingRecord
from repro.core import DrugTree
from repro.core.overlay import make_overlay_tables
from repro.errors import QueryError
from repro.workloads.families import name_internal_clades


def _drugtree():
    tree = parse_newick("((a:1,b:1)ab:1,((c:1,d:1)cd:1,e:1)cde:1)root;")
    drugtree = DrugTree(tree)
    for leaf in "abcde":
        drugtree.add_protein(leaf, organism=f"org_{leaf}")
    return drugtree


def _bind(drugtree, ligand, protein, nm):
    drugtree.add_binding(
        BindingRecord(ligand, protein, ActivityType.KI, nm)
    )


class TestOverlayTables:
    def test_three_tables_with_expected_columns(self):
        tables = make_overlay_tables()
        assert set(tables) == {"proteins", "ligands", "bindings"}
        assert "leaf_pre" in tables["bindings"].schema.column_names
        assert "leaf_pre" in tables["proteins"].schema.column_names

    def test_binding_rows_carry_leaf_position(self):
        drugtree = _drugtree()
        _bind(drugtree, "L1", "c", 100.0)
        row = next(drugtree.tables["bindings"].scan_rows())
        leaf_pre = drugtree.tables["bindings"].value(row, "leaf_pre")
        assert leaf_pre == drugtree.labeling.leaf_position("c")


class TestCladeAggregates:
    def test_counts_roll_up_ancestor_path(self):
        drugtree = _drugtree()
        _bind(drugtree, "L1", "c", 100.0)
        _bind(drugtree, "L2", "d", 10.0)
        _bind(drugtree, "L3", "a", 1000.0)
        stats_cd = drugtree.clade_stats("cd")
        stats_root = drugtree.clade_stats("root")
        assert stats_cd["count"] == 2
        assert stats_root["count"] == 3

    def test_mean_and_max(self):
        drugtree = _drugtree()
        _bind(drugtree, "L1", "c", 100.0)   # pAff 7
        _bind(drugtree, "L2", "d", 10.0)    # pAff 8
        stats = drugtree.clade_stats("cd")
        assert stats["mean"] == pytest.approx(7.5)
        assert stats["max"] == pytest.approx(8.0)

    def test_potent_fraction(self):
        drugtree = _drugtree()
        _bind(drugtree, "L1", "c", 100.0)      # potent
        _bind(drugtree, "L2", "d", 50_000.0)   # not potent
        assert drugtree.clade_stats("cd")["potent_fraction"] == 0.5

    def test_empty_clade(self):
        drugtree = _drugtree()
        _bind(drugtree, "L1", "a", 100.0)
        stats = drugtree.clade_stats("cd")
        assert stats["count"] == 0
        assert stats["mean"] == 0.0

    def test_unknown_clade(self):
        with pytest.raises(QueryError):
            _drugtree().clade_stats("nope")

    def test_maintenance_cost_is_path_length(self):
        drugtree = _drugtree()
        before = drugtree.clade_aggregates.maintenance_ops
        _bind(drugtree, "L1", "c", 100.0)
        assert drugtree.clade_aggregates.maintenance_ops == before + 1

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=4, max_value=20), st.integers(0, 1000),
           st.integers(5, 40))
    def test_property_aggregates_match_brute_force(self, n, seed,
                                                   n_bindings):
        """Incremental clade stats must equal recomputing from rows."""
        rng = random.Random(seed)
        tree = birth_death_tree(n, seed=seed)
        name_internal_clades(tree)
        drugtree = DrugTree(tree)
        leaves = tree.leaf_names()
        for leaf in leaves:
            drugtree.add_protein(leaf)
        for i in range(n_bindings):
            drugtree.add_binding(BindingRecord(
                f"L{i}", rng.choice(leaves), ActivityType.KI,
                round(rng.uniform(1.0, 10_000.0), 3),
            ))
        bindings = drugtree.tables["bindings"]
        for node in tree.preorder():
            if node.is_leaf or not node.name:
                continue
            low, high = drugtree.labeling.leaf_range(node.name)
            expected = [
                bindings.value(row, "p_affinity")
                for row in bindings.scan_rows()
                if low <= bindings.value(row, "leaf_pre") < high
            ]
            stats = drugtree.clade_stats(node.name)
            assert stats["count"] == len(expected)
            if expected:
                assert stats["mean"] == pytest.approx(
                    sum(expected) / len(expected)
                )
                assert stats["max"] == pytest.approx(max(expected))
