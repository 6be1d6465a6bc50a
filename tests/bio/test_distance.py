"""Tests for evolutionary distance computation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bio import (
    DistanceMatrix,
    ProteinSequence,
    distance_matrix,
    distance_matrix_from_msa,
    global_align,
    kimura_distance,
    p_distance,
)
from repro.bio.distance import MAX_DISTANCE
from repro.errors import AlignmentError, TreeError


def _aln(text_a, text_b):
    return global_align(ProteinSequence("a", text_a),
                        ProteinSequence("b", text_b))


class TestCorrections:
    def test_p_distance_identical(self):
        assert p_distance(_aln("MKTAY", "MKTAY")) == 0.0

    def test_p_distance_half(self):
        aln = _aln("AAAA", "AAWW")
        assert p_distance(aln) == pytest.approx(0.5)

    def test_kimura_formula(self):
        aln = _aln("AAAA", "AAWW")
        p = 0.5
        assert kimura_distance(aln) == pytest.approx(
            -math.log(1 - p - 0.2 * p * p)
        )

    def test_corrections_agree_at_zero(self):
        aln = _aln("MKTAY", "MKTAY")
        assert p_distance(aln) == kimura_distance(aln) == 0.0

    def test_saturation_is_capped(self):
        # Completely different residues: p = 1 → the correction saturates.
        aln = _aln("AAAA", "WWWW")
        assert kimura_distance(aln) == MAX_DISTANCE


class TestDistanceMatrix:
    def _matrix(self):
        values = np.array([[0.0, 1.0, 2.0],
                           [1.0, 0.0, 1.5],
                           [2.0, 1.5, 0.0]])
        return DistanceMatrix(("a", "b", "c"), values)

    def test_lookup_by_name(self):
        dm = self._matrix()
        assert dm.get("a", "c") == 2.0
        assert dm.get("c", "a") == 2.0

    def test_unknown_taxon(self):
        with pytest.raises(TreeError):
            self._matrix().get("a", "zz")

    def test_rejects_asymmetric(self):
        values = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(TreeError, match="symmetric"):
            DistanceMatrix(("a", "b"), values)

    def test_rejects_nonzero_diagonal(self):
        values = np.array([[0.5, 1.0], [1.0, 0.0]])
        with pytest.raises(TreeError, match="diagonal"):
            DistanceMatrix(("a", "b"), values)

    def test_rejects_negative(self):
        values = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(TreeError, match="non-negative"):
            DistanceMatrix(("a", "b"), values)

    def test_rejects_duplicate_taxa(self):
        values = np.zeros((2, 2))
        with pytest.raises(TreeError, match="unique"):
            DistanceMatrix(("a", "a"), values)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(TreeError, match="shape"):
            DistanceMatrix(("a", "b"), np.zeros((3, 3)))

    def test_values_are_frozen(self):
        dm = self._matrix()
        with pytest.raises(ValueError):
            dm.values[0, 1] = 9.0


class TestBuildFromSequences:
    def test_pairwise_path(self):
        seqs = [
            ProteinSequence("s1", "MKTAYIAKQR"),
            ProteinSequence("s2", "MKTAYIAKQR"),
            ProteinSequence("s3", "MKTWYIWKQR"),
        ]
        dm = distance_matrix(seqs, correction="p")
        assert dm.get("s1", "s2") == 0.0
        assert dm.get("s1", "s3") == pytest.approx(0.2)

    def test_requires_two_sequences(self):
        with pytest.raises(AlignmentError):
            distance_matrix([ProteinSequence("s1", "MKT")])

    def test_unknown_correction(self):
        seqs = [ProteinSequence("s1", "MKT"), ProteinSequence("s2", "MKT")]
        with pytest.raises(AlignmentError, match="unknown distance"):
            distance_matrix(seqs, correction="jukes")

    def test_from_msa_ignores_gap_columns(self):
        names = ["a", "b"]
        rows = ["MK-AY", "MKTAY"]
        dm = distance_matrix_from_msa(names, rows, correction="p")
        assert dm.get("a", "b") == 0.0

    def test_from_msa_counts_substitutions(self):
        dm = distance_matrix_from_msa(["a", "b"], ["MKTAY", "MKTWY"],
                                      correction="p")
        assert dm.get("a", "b") == pytest.approx(0.2)

    def test_from_msa_rejects_ragged(self):
        with pytest.raises(AlignmentError, match="widths"):
            distance_matrix_from_msa(["a", "b"], ["MKT", "MKTA"])

    @settings(max_examples=20, deadline=None)
    @given(st.lists(
        st.text(alphabet="ACDE", min_size=8, max_size=8),
        min_size=2, max_size=5, unique=True,
    ))
    def test_property_msa_distances_valid(self, rows):
        names = [f"t{i}" for i in range(len(rows))]
        dm = distance_matrix_from_msa(names, rows, correction="p")
        assert (dm.values >= 0).all()
        assert (dm.values <= 1).all()
