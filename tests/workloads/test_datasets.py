"""Tests for the end-to-end dataset builder."""

import os
import subprocess
import sys

import pytest

import repro
from repro.errors import WorkloadError
from repro.workloads import DatasetConfig, build_dataset, datasets
from repro.workloads.datasets import generate_bindings


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(DatasetConfig(n_leaves=20, n_ligands=30, seed=2))


class TestConfig:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            DatasetConfig(n_leaves=1)


class TestBuild:
    def test_sources_populated(self, dataset):
        assert len(dataset.protein_source.scan_keys("protein")) == 20
        assert len(dataset.activity_source.scan_keys("compound")) == 30
        assert len(dataset.annotation_source.scan_keys("annotation")) == 20

    def test_registry_serves_all_kinds(self, dataset):
        assert {"protein", "compound", "annotation",
                "activity_by_protein"} <= set(dataset.registry.kinds())

    def test_deterministic(self):
        a = build_dataset(DatasetConfig(n_leaves=10, n_ligands=15, seed=8))
        b = build_dataset(DatasetConfig(n_leaves=10, n_ligands=15, seed=8))
        assert [r for r in a.bindings] == [r for r in b.bindings]
        assert a.tree.to_newick() == b.tree.to_newick()

    def test_annotations_do_not_depend_on_the_hash_seed(self):
        # GO terms derive from the family name; str hashes are salted
        # per interpreter, so the digest must not be ``hash()``.
        script = (
            "from repro.workloads import DatasetConfig, build_dataset\n"
            "ds = build_dataset(DatasetConfig(n_leaves=12, "
            "n_ligands=10, seed=5))\n"
            "ids = ds.family.protein_ids\n"
            "print(repr(ds.annotation_source.fetch_many("
            "'annotation', ids)))\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=src)
            outputs.append(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True).stdout)
        assert outputs[0] == outputs[1]
        assert b"GO:000" in outputs[0]

    def test_drugtree_cached(self, dataset):
        assert dataset.drugtree() is dataset.drugtree()

    def test_every_binding_references_known_entities(self, dataset):
        proteins = set(dataset.family.protein_ids)
        ligands = {ligand.ligand_id for ligand in dataset.ligands}
        for record in dataset.bindings:
            assert record.protein_id in proteins
            assert record.ligand_id in ligands


class TestPhylogeneticSignal:
    def test_bindings_cluster_on_the_tree(self, dataset):
        """A ligand's binding partners should be closer to each other on
        the tree than random leaf pairs are."""
        tree = dataset.tree
        names, dist = tree.cophenetic_matrix()
        index = {name: i for i, name in enumerate(names)}
        import itertools
        overall = [
            dist[i, j]
            for i, j in itertools.combinations(range(len(names)), 2)
        ]
        overall_mean = sum(overall) / len(overall)

        by_ligand: dict[str, list[str]] = {}
        for record in dataset.bindings:
            by_ligand.setdefault(record.ligand_id, []).append(
                record.protein_id
            )
        partner_distances = []
        for partners in by_ligand.values():
            unique = sorted(set(partners))
            if len(unique) < 2:
                continue
            for a, b in itertools.combinations(unique, 2):
                partner_distances.append(dist[index[a], index[b]])
        assert partner_distances
        partner_mean = sum(partner_distances) / len(partner_distances)
        assert partner_mean < overall_mean

    def test_detection_floor_respected(self, dataset):
        floor = datasets.DETECTION_FLOOR
        for record in dataset.bindings:
            assert record.p_affinity >= floor - 1e-9

    def test_coverage_controls_density(self, monkeypatch):
        config = DatasetConfig(n_leaves=15, n_ligands=20, seed=3)
        monkeypatch.setattr(datasets, "ASSAY_COVERAGE", 0.2)
        sparse = build_dataset(config)
        monkeypatch.setattr(datasets, "ASSAY_COVERAGE", 0.9)
        dense = build_dataset(config)
        assert len(sparse.bindings) < len(dense.bindings)

    def test_generate_bindings_deterministic(self, dataset):
        again = generate_bindings(dataset.family, dataset.ligands,
                                  dataset.config)
        assert again == dataset.bindings
