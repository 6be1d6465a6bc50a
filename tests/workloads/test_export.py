"""Tests for dataset export: every artefact reads back with a standard reader."""

import csv

import pytest

from repro.bio import parse_fasta, parse_newick
from repro.chem import ActivityType, p_affinity, parse_smiles
from repro.workloads import DatasetConfig, build_dataset
from repro.workloads.export import (
    BINDING_COLUMNS,
    PROTEIN_COLUMNS,
    export_dataset,
)


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(DatasetConfig(n_leaves=10, n_ligands=15,
                                       seed=44))


@pytest.fixture(scope="module")
def exported(dataset, tmp_path_factory):
    directory = tmp_path_factory.mktemp("export")
    return export_dataset(dataset, directory)


class TestExport:
    def test_all_artifacts_written(self, exported):
        assert set(exported) == {
            "sequences", "tree", "ligands", "bindings", "proteins",
        }
        for path in exported.values():
            assert path.exists()
            assert path.stat().st_size > 0

    def test_fasta_parses_back(self, dataset, exported):
        sequences = parse_fasta(exported["sequences"].read_text("utf-8"))
        assert sequences == dataset.family.sequences

    def test_newick_parses_back(self, dataset, exported):
        tree = parse_newick(exported["tree"].read_text("utf-8").strip())
        assert tree.robinson_foulds(dataset.tree) == 0

    def test_smiles_file_parses_back(self, dataset, exported):
        lines = exported["ligands"].read_text("utf-8").splitlines()
        pairs = [line.split("\t") for line in lines]
        assert len(pairs) == len(dataset.ligands)
        for (smiles, name), ligand in zip(pairs, dataset.ligands):
            assert name == ligand.ligand_id
            # Every exported SMILES is chemically valid.
            assert parse_smiles(smiles).heavy_atom_count > 0

    def test_bindings_roundtrip(self, dataset, exported):
        with exported["bindings"].open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(dataset.bindings)
        for row, original in zip(rows, dataset.bindings):
            assert row["ligand_id"] == original.ligand_id
            assert row["protein_id"] == original.protein_id
            assert row["activity_type"] == original.activity_type.value
            assert float(row["value_nm"]) == pytest.approx(
                original.value_nm, rel=1e-5)

    def test_proteins_csv_has_metadata(self, dataset, exported):
        text = exported["proteins"].read_text("utf-8")
        assert "protein_id,organism,family" in text.splitlines()[0]
        assert len(text.splitlines()) == dataset.config.n_leaves + 1

    def test_bindings_csv_columns_in_documented_order(self, exported):
        with exported["bindings"].open(newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh))
        assert tuple(header) == BINDING_COLUMNS

    def test_bindings_csv_reads_back_as_records(self, dataset, exported):
        with exported["bindings"].open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        for row, original in zip(rows, dataset.bindings):
            # The activity type names its enum member; the pAffinity
            # column agrees with the value column it was derived from.
            assert ActivityType(row["activity_type"]) is \
                original.activity_type
            assert float(row["p_affinity"]) == pytest.approx(
                p_affinity(float(row["value_nm"])), abs=1e-4)
            assert row["assay_id"] == original.assay_id
            assert row["source"] == original.source

    def test_proteins_csv_rows_match_the_family(self, dataset, exported):
        with exported["proteins"].open(newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            assert tuple(reader.fieldnames) == PROTEIN_COLUMNS
            rows = list(reader)
        family = dataset.family
        assert [row["protein_id"] for row in rows] == family.protein_ids
        for row in rows:
            assert row["organism"] == family.organisms[row["protein_id"]]
            assert row["family"] == family.families[row["protein_id"]]

    def test_tree_leaves_are_the_exported_proteins(self, dataset, exported):
        tree = parse_newick(exported["tree"].read_text("utf-8").strip())
        assert sorted(tree.leaf_names()) == sorted(
            dataset.family.protein_ids)

    def test_export_is_deterministic_and_makes_its_directory(
            self, dataset, exported, tmp_path):
        again = export_dataset(dataset, tmp_path / "nested" / "out")
        for name, path in again.items():
            assert path.read_bytes() == exported[name].read_bytes(), name
