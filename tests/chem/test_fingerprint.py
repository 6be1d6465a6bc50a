"""Tests for circular fingerprints and similarity measures."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chem import (
    Fingerprint,
    bulk_tanimoto,
    circular_fingerprint,
    dice,
    parse_smiles,
    tanimoto,
)
from repro.errors import ChemError

SMILES_POOL = [
    "CCO", "CCCO", "CCCCO", "c1ccccc1", "c1ccccc1O", "c1ccccc1N",
    "CC(=O)Oc1ccccc1C(=O)O", "CC(C)Cc1ccc(cc1)C(C)C(=O)O",
    "Cn1cnc2c1c(=O)n(C)c(=O)n2C", "C1CCCCC1", "C1CCNCC1",
]


class TestFingerprintObject:
    def test_popcount_and_on_bits(self):
        fp = Fingerprint(0b1011, 8)
        assert fp.popcount == 3
        assert 1 in fp
        assert 2 not in fp

    def test_rejects_overflow(self):
        with pytest.raises(ChemError):
            Fingerprint(1 << 8, 8)

    def test_rejects_tiny_width(self):
        with pytest.raises(ChemError):
            Fingerprint(0, 4)


class TestSimilarity:
    def test_tanimoto_identical(self):
        fp = Fingerprint(0b1100, 8)
        assert tanimoto(fp, fp) == 1.0

    def test_tanimoto_disjoint(self):
        assert tanimoto(Fingerprint(0b1100, 8), Fingerprint(0b0011, 8)) == 0.0

    def test_tanimoto_partial(self):
        # overlap 1, union 3
        assert tanimoto(Fingerprint(0b110, 8),
                        Fingerprint(0b011, 8)) == pytest.approx(1 / 3)

    def test_empty_fingerprints_similar(self):
        empty = Fingerprint(0, 8)
        assert tanimoto(empty, empty) == 1.0
        assert dice(empty, empty) == 1.0

    def test_width_mismatch(self):
        with pytest.raises(ChemError):
            tanimoto(Fingerprint(0, 8), Fingerprint(0, 16))
        with pytest.raises(ChemError):
            dice(Fingerprint(0, 8), Fingerprint(0, 16))

    def test_dice_geq_tanimoto(self):
        a = Fingerprint(0b1110, 8)
        b = Fingerprint(0b0111, 8)
        assert dice(a, b) >= tanimoto(a, b)


class TestCircularFingerprint:
    def test_deterministic(self):
        a = circular_fingerprint(parse_smiles("CCO"))
        b = circular_fingerprint(parse_smiles("CCO"))
        assert a == b

    def test_same_molecule_different_smiles_order(self):
        """Fingerprints are graph invariants, not text invariants."""
        a = circular_fingerprint(parse_smiles("OCC"))
        b = circular_fingerprint(parse_smiles("CCO"))
        assert a == b

    def test_different_molecules_differ(self):
        a = circular_fingerprint(parse_smiles("CCO"))
        b = circular_fingerprint(parse_smiles("c1ccccc1"))
        assert a != b

    def test_radius_zero_is_atom_types_only(self):
        fp0 = circular_fingerprint(parse_smiles("CCCCCC"), radius=0)
        # A chain of carbons has only two environments at radius 0
        # (terminal CH3 and inner CH2).
        assert fp0.popcount == 2

    def test_negative_radius_rejected(self):
        with pytest.raises(ChemError):
            circular_fingerprint(parse_smiles("C"), radius=-1)

    def test_analogs_more_similar_than_strangers(self):
        ethanol = circular_fingerprint(parse_smiles("CCO"))
        propanol = circular_fingerprint(parse_smiles("CCCO"))
        caffeine = circular_fingerprint(
            parse_smiles("Cn1cnc2c1c(=O)n(C)c(=O)n2C")
        )
        assert tanimoto(ethanol, propanol) > tanimoto(ethanol, caffeine)

    def test_bulk_matches_single(self):
        fps = [circular_fingerprint(parse_smiles(s)) for s in SMILES_POOL]
        scores = bulk_tanimoto(fps[0], fps)
        assert scores[0] == 1.0
        for score, fp in zip(scores, fps):
            assert score == tanimoto(fps[0], fp)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(SMILES_POOL), st.sampled_from(SMILES_POOL))
    def test_property_similarity_bounds_and_symmetry(self, smi_a, smi_b):
        fa = circular_fingerprint(parse_smiles(smi_a))
        fb = circular_fingerprint(parse_smiles(smi_b))
        score = tanimoto(fa, fb)
        assert 0.0 <= score <= 1.0
        assert score == tanimoto(fb, fa)
        if smi_a == smi_b:
            assert score == 1.0
