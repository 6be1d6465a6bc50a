"""Tests for the popcount-ordered fingerprint index."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chem import (
    FingerprintIndex,
    circular_fingerprint,
    generate_library,
    parse_smiles,
    tanimoto,
)
from repro.chem.fingerprint import Fingerprint
from repro.errors import ChemError


@pytest.fixture(scope="module")
def library():
    return generate_library(60, seed=33)


@pytest.fixture(scope="module")
def index(library):
    built = FingerprintIndex()
    built.add_many(
        (ligand.ligand_id, ligand.fingerprint) for ligand in library
    )
    return built


class TestConstruction:
    def test_size_and_membership(self, index, library):
        assert len(index) == len(library)
        assert library[0].ligand_id in index
        assert "nope" not in index

    def test_duplicate_key_rejected(self, library):
        built = FingerprintIndex()
        built.add("a", library[0].fingerprint)
        with pytest.raises(ChemError, match="duplicate"):
            built.add("a", library[1].fingerprint)

    def test_width_mismatch_rejected(self):
        built = FingerprintIndex()
        built.add("a", Fingerprint(0b1, 64))
        with pytest.raises(ChemError, match="width"):
            built.add("b", Fingerprint(0b1, 128))

    def test_get(self, index, library):
        assert index.get(library[0].ligand_id) == library[0].fingerprint
        assert index.get("nope") is None


class TestCandidateBand:
    def test_band_is_sound(self, index, library):
        """Nothing outside the band can reach the threshold."""
        probe = library[5].fingerprint
        threshold = 0.7
        band_keys = {
            key for key, _ in index.candidate_band(probe, threshold)
        }
        for ligand in library:
            score = tanimoto(probe, ligand.fingerprint)
            if score >= threshold:
                assert ligand.ligand_id in band_keys

    def test_band_shrinks_with_threshold(self, index, library):
        probe = library[0].fingerprint
        loose = len(index.candidate_band(probe, 0.3))
        tight = len(index.candidate_band(probe, 0.9))
        assert tight <= loose

    def test_invalid_threshold(self, index, library):
        with pytest.raises(ChemError):
            index.candidate_band(library[0].fingerprint, 0.0)
        with pytest.raises(ChemError):
            index.candidate_band(library[0].fingerprint, 1.5)


class TestSearch:
    def test_matches_exhaustive_scan(self, index, library):
        probe = circular_fingerprint(parse_smiles("c1ccc(CC(=O)O)cc1"))
        threshold = 0.5
        expected = {
            ligand.ligand_id
            for ligand in library
            if tanimoto(probe, ligand.fingerprint) >= threshold
        }
        found = {key for key, _ in index.search(probe, threshold)}
        assert found == expected

    def test_results_sorted_strongest_first(self, index, library):
        probe = library[10].fingerprint
        scores = [score for _, score in index.search(probe, 0.2)]
        assert scores == sorted(scores, reverse=True)

    def test_self_is_top_hit(self, index, library):
        probe = library[7]
        results = index.search(probe.fingerprint, 0.99)
        assert results
        assert results[0][1] == 1.0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 59), st.floats(0.2, 0.95))
    def test_property_index_equals_brute_force(self, index, library,
                                               probe_position, threshold):
        probe = library[probe_position].fingerprint
        expected = sorted(
            (ligand.ligand_id, tanimoto(probe, ligand.fingerprint))
            for ligand in library
            if tanimoto(probe, ligand.fingerprint) >= threshold
        )
        found = sorted(index.search(probe, threshold))
        assert [key for key, _ in found] == [key for key, _ in expected]
