"""Tests for evolutionary distance computation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bio import (
    DistanceMatrix,
    alphabet,
    ProteinSequence,
    distance_matrix,
    global_align,
    kimura_distance,
    p_distance,
)
from repro.bio.align import PairwiseAlignment
from repro.bio.distance import MAX_DISTANCE
from repro.errors import AlignmentError, TreeError


def _aln(text_a, text_b):
    return global_align(ProteinSequence("a", text_a),
                        ProteinSequence("b", text_b))


class TestCorrections:
    @pytest.mark.parametrize("text_a,text_b", [
        ("MKTAY", "MKTAY"), ("AAAA", "AAWW"), ("MKTAYIAKQR", "MKTWYIWKQR"),
        ("AAAA", "WWWW"), ("MKTAYWWWWIAKQR", "MKTAYIAKQR"),
    ])
    def test_kimura_never_below_p(self, text_a, text_b):
        aln = _aln(text_a, text_b)
        assert p_distance(aln) <= kimura_distance(aln) <= MAX_DISTANCE

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

    def test_p_distance_reads_only_gap_free_columns(self):
        seq = ProteinSequence("x", "AKW")
        aln = PairwiseAlignment(seq, seq, "AKW-", "AR-W", 0)
        assert p_distance(aln) == pytest.approx(0.5)

    @pytest.mark.parametrize("correction", [p_distance, kimura_distance])
    def test_all_gap_alignment_has_no_distance(self, correction):
        seq = ProteinSequence("x", "A")
        aln = PairwiseAlignment(seq, seq, "A-", "-W", 0)
        with pytest.raises(AlignmentError):
            correction(aln)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 40), st.data())
    def test_property_kimura_grows_with_p(self, length, data):
        """More differing columns never give a shorter distance, and the
        correction stays within [p, MAX_DISTANCE]."""
        fewer = data.draw(st.integers(0, length))
        more = data.draw(st.integers(fewer, length))
        seq = ProteinSequence("x", "A")

        def aln(diffs):
            return PairwiseAlignment(seq, seq, "A" * length,
                                     "W" * diffs + "A" * (length - diffs), 0)

        near, far = kimura_distance(aln(fewer)), kimura_distance(aln(more))
        assert near <= far
        assert p_distance(aln(more)) <= far <= MAX_DISTANCE

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

    def test_length_and_index(self):
        dm = self._matrix()
        assert len(dm) == 3
        assert [dm.index_of(name) for name in ("c", "a", "b")] == [2, 0, 1]

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
        dm = distance_matrix(seqs)
        assert dm.get("s1", "s2") == 0.0
        p = 0.2
        assert dm.get("s1", "s3") == pytest.approx(
            -math.log(1 - p - 0.2 * p * p))

    def test_rows_follow_the_input_order(self):
        seqs = [ProteinSequence("z", "MKTAY"), ProteinSequence("a", "MKTWY"),
                ProteinSequence("m", "MKTAY")]
        dm = distance_matrix(seqs)
        assert dm.names == ("z", "a", "m")
        assert dm.get("z", "m") == 0.0
        assert dm.get("z", "a") == dm.get("a", "m") > 0.0

    def test_requires_two_sequences(self):
        with pytest.raises(AlignmentError):
            distance_matrix([ProteinSequence("s1", "MKT")])

    @settings(max_examples=8, deadline=None)
    @given(st.lists(st.text(alphabet=alphabet.AMINO_ACIDS, min_size=3,
                            max_size=12), min_size=2, max_size=4))
    def test_property_entries_are_pairwise_kimura(self, texts):
        seqs = [ProteinSequence(f"s{i}", text) for i, text in enumerate(texts)]
        dm = distance_matrix(seqs)
        for i, seq_i in enumerate(seqs):
            assert dm.values[i, i] == 0.0
            for j in range(i + 1, len(seqs)):
                expected = kimura_distance(global_align(seq_i, seqs[j]))
                assert dm.values[i, j] == dm.values[j, i] == expected
