"""Tests for the random ligand library generator."""

import random

import pytest

from repro.chem import (
    build_ligand,
    generate_library,
    generate_ligand,
    mutate_recipe,
    random_recipe,
    tanimoto,
)
from repro.errors import ChemError


class TestRecipes:
    def test_random_recipe_renders_and_parses(self):
        rng = random.Random(0)
        for i in range(25):
            recipe = random_recipe(rng)
            try:
                ligand = build_ligand(recipe, f"L{i}")
            except ChemError:
                continue  # some assemblies are chemically invalid
            assert ligand.molecule.heavy_atom_count >= 4

    def test_mutation_changes_at_most_one_substituent(self):
        rng = random.Random(1)
        recipe = random_recipe(rng)
        mutant = mutate_recipe(recipe, rng)
        assert mutant.scaffold_index == recipe.scaffold_index
        diffs = sum(
            a != b
            for a, b in zip(recipe.substituents, mutant.substituents)
        )
        assert diffs <= 1


class TestGenerateLigand:
    def test_has_all_artifacts(self):
        ligand = generate_ligand("L0", random.Random(0))
        assert ligand.ligand_id == "L0"
        assert ligand.fingerprint.popcount > 0
        assert ligand.descriptors.molecular_weight > 50
        assert ligand.recipe is not None

    def test_deterministic_from_seed(self):
        a = generate_ligand("L0", random.Random(5))
        b = generate_ligand("L0", random.Random(5))
        assert a.smiles == b.smiles
        assert a.fingerprint == b.fingerprint


class TestGenerateLibrary:
    def test_size_and_uniqueness(self):
        library = generate_library(60, seed=11)
        assert len(library) == 60
        assert len({ligand.smiles for ligand in library}) == 60
        assert len({ligand.ligand_id for ligand in library}) == 60

    def test_deterministic(self):
        a = generate_library(20, seed=3)
        b = generate_library(20, seed=3)
        assert [x.smiles for x in a] == [x.smiles for x in b]

    def test_id_prefix(self):
        library = generate_library(5, seed=0, id_prefix="CMP")
        assert all(lig.ligand_id.startswith("CMP") for lig in library)

    def test_invalid_parameters(self):
        with pytest.raises(ChemError):
            generate_library(0)
        with pytest.raises(ChemError):
            generate_library(5, analog_fraction=1.5)

    def test_analog_series_create_similarity_structure(self):
        """With analogs, nearest-neighbour similarity should be high."""
        clustered = generate_library(80, seed=2, analog_fraction=0.5)
        lonely = generate_library(80, seed=2, analog_fraction=0.0)

        def mean_nearest(library):
            fps = [ligand.fingerprint for ligand in library]
            total = 0.0
            for i, fp in enumerate(fps):
                scores = [tanimoto(fp, other) for other in fps]
                scores[i] = -1.0
                total += max(scores)
            return total / len(fps)

        assert mean_nearest(clustered) > mean_nearest(lonely)

    def test_mostly_drug_like(self):
        library = generate_library(100, seed=4)
        fraction = sum(
            ligand.descriptors.is_drug_like for ligand in library
        ) / len(library)
        assert fraction > 0.8
