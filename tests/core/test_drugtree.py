"""Tests for the DrugTree facade."""

import pytest

from repro.bio import parse_newick
from repro.chem import ActivityType, BindingRecord
from repro.core import DrugTree
from repro.errors import QueryError


@pytest.fixture
def tree():
    return parse_newick("((a:1,b:1)ab:1,(c:1,d:1)cd:1)root;")


def _descriptors(mw=250.0):
    return {
        "molecular_weight": mw, "logp": 2.0, "tpsa": 40.0,
        "hbd": 1, "hba": 3, "rotatable_bonds": 2, "ring_count": 1,
        "is_drug_like": True,
    }


class TestPopulation:
    def test_add_protein_maps_to_leaf(self, tree):
        drugtree = DrugTree(tree)
        drugtree.add_protein("c", organism="Homo sapiens")
        row = next(drugtree.tables["proteins"].scan_rows())
        table = drugtree.tables["proteins"]
        assert table.value(row, "leaf_pre") == \
            drugtree.labeling.leaf_position("c")

    def test_add_protein_unknown_leaf(self, tree):
        drugtree = DrugTree(tree)
        with pytest.raises(Exception):
            drugtree.add_protein("zz")

    def test_duplicate_protein_rejected(self, tree):
        drugtree = DrugTree(tree)
        drugtree.add_protein("a")
        with pytest.raises(QueryError, match="already added"):
            drugtree.add_protein("a")

    def test_add_ligand_computes_fingerprint(self, tree):
        drugtree = DrugTree(tree)
        drugtree.add_ligand("L1", "CCO", _descriptors())
        assert "L1" in drugtree.fingerprints
        assert drugtree.fingerprints["L1"].popcount > 0

    def test_duplicate_ligand_rejected(self, tree):
        drugtree = DrugTree(tree)
        drugtree.add_ligand("L1", "CCO", _descriptors())
        with pytest.raises(QueryError, match="already added"):
            drugtree.add_ligand("L1", "CCO", _descriptors())

    def test_binding_requires_known_protein(self, tree):
        drugtree = DrugTree(tree)
        record = BindingRecord("L1", "a", ActivityType.KI, 10.0)
        with pytest.raises(QueryError, match="unknown protein"):
            drugtree.add_binding(record)
        drugtree.add_protein("a")
        drugtree.add_binding(record)
        assert drugtree.binding_count == 1

    def test_counts(self, tree):
        drugtree = DrugTree(tree)
        drugtree.add_protein("a")
        drugtree.add_ligand("L1", "CCO", _descriptors())
        drugtree.add_binding(
            BindingRecord("L1", "a", ActivityType.KI, 10.0)
        )
        assert drugtree.leaf_count == 4
        assert drugtree.protein_count == 1
        assert drugtree.ligand_count == 1
        assert drugtree.binding_count == 1


class TestBuildAndDesign:
    def test_build_creates_indexes_and_stats(self, tree):
        drugtree = DrugTree.build(
            tree,
            proteins=[{"protein_id": leaf} for leaf in "abcd"],
            ligands=[{"ligand_id": "L1", "smiles": "CCO",
                      "descriptors": _descriptors()}],
            bindings=[BindingRecord("L1", "a", ActivityType.KI, 10.0)],
        )
        assert drugtree.tables["bindings"].index_on("leaf_pre",
                                                    require_range=True)
        assert drugtree.statistics["bindings"].row_count == 1

    def test_statistics_refresh_at_staleness_threshold(self, tree):
        # A single mutation is below the staleness threshold: slightly
        # stale statistics are kept (they only perturb cost estimates).
        drugtree = DrugTree.build(
            tree, proteins=[{"protein_id": leaf} for leaf in "abcd"],
        )
        drugtree.add_binding(
            BindingRecord("L1", "a", ActivityType.KI, 10.0)
        )
        assert drugtree.statistics["bindings"].row_count == 0
        assert "bindings" not in drugtree.stale_tables()
        # Crossing the threshold marks the table stale and the next
        # statistics read re-ANALYZEs just that table.
        from repro.core.drugtree import STALE_MIN_MUTATIONS
        for _ in range(STALE_MIN_MUTATIONS):
            drugtree.add_binding(
                BindingRecord("L1", "a", ActivityType.KI, 10.0)
            )
        assert "bindings" in drugtree.stale_tables()
        epoch_before = drugtree.stats_epoch
        stats_after = drugtree.statistics
        assert stats_after["bindings"].row_count == STALE_MIN_MUTATIONS + 1
        assert drugtree.stats_epoch > epoch_before
        assert drugtree.stale_tables() == []

    def test_mutation_listener_fires(self, tree):
        # Every row any overlay table takes bumps the data version once;
        # reads and rejected inserts leave it alone.
        drugtree = DrugTree(tree)
        assert drugtree.data_version == 0
        drugtree.add_protein("a")
        assert drugtree.data_version == 1
        drugtree.add_binding(BindingRecord("L1", "a", ActivityType.KI, 10.0))
        assert drugtree.data_version == 2
        drugtree.bindings_for_protein("a")
        with pytest.raises(QueryError):
            drugtree.add_protein("a")
        assert drugtree.data_version == 2

    def test_bindings_for_protein(self, tree):
        drugtree = DrugTree.build(
            tree,
            proteins=[{"protein_id": leaf} for leaf in "abcd"],
            bindings=[
                BindingRecord("L1", "a", ActivityType.KI, 10.0),
                BindingRecord("L2", "a", ActivityType.KD, 20.0),
                BindingRecord("L1", "b", ActivityType.KI, 30.0),
            ],
        )
        rows = drugtree.bindings_for_protein("a")
        assert {row["ligand_id"] for row in rows} == {"L1", "L2"}
