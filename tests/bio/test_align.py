"""Tests for pairwise alignment (Needleman–Wunsch / Smith–Waterman)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bio import BLOSUM62, ProteinSequence, global_align, local_align
from repro.bio import alphabet
from repro.errors import AlignmentError

residue_text = st.text(alphabet=alphabet.AMINO_ACIDS, min_size=1,
                       max_size=30)


def _score_alignment(aligned_a, aligned_b, gap_open=11, gap_extend=1):
    """Independently re-score an alignment with affine gap accounting."""
    total = 0
    in_gap_a = in_gap_b = False
    for res_a, res_b in zip(aligned_a, aligned_b):
        if res_a == alphabet.GAP:
            total -= gap_open if not in_gap_a else gap_extend
            in_gap_a, in_gap_b = True, False
        elif res_b == alphabet.GAP:
            total -= gap_open if not in_gap_b else gap_extend
            in_gap_b, in_gap_a = True, False
        else:
            total += BLOSUM62.score(res_a, res_b)
            in_gap_a = in_gap_b = False
    return total


class TestGlobalAlign:
    def test_identical_sequences_align_without_gaps(self):
        seq = ProteinSequence("a", "MKTAYIAKQR")
        aln = global_align(seq, ProteinSequence("b", "MKTAYIAKQR"))
        assert aln.aligned_a == aln.aligned_b == "MKTAYIAKQR"
        assert aln.identity == 1.0
        assert aln.score == sum(BLOSUM62.score(c, c) for c in "MKTAYIAKQR")

    def test_simple_terminal_gap(self):
        aln = global_align(ProteinSequence("a", "MKTAY"),
                           ProteinSequence("b", "MKT"))
        assert aln.aligned_a == "MKTAY"
        assert aln.aligned_b == "MKT--"

    def test_internal_deletion(self):
        # The deleted block should appear as one affine gap.
        aln = global_align(
            ProteinSequence("a", "MKTAYWWWWIAKQR"),
            ProteinSequence("b", "MKTAYIAKQR"),
        )
        assert aln.aligned_b.count(alphabet.GAP) == 4
        assert "----" in aln.aligned_b

    def test_reported_score_matches_rescoring(self):
        aln = global_align(ProteinSequence("a", "MKWVTFISLLLLFSSAYS"),
                           ProteinSequence("b", "MKWVTPISLFSSAYS"))
        assert aln.score == _score_alignment(aln.aligned_a, aln.aligned_b)

    def test_degapping_recovers_inputs(self):
        a = ProteinSequence("a", "MKTAYIAK")
        b = ProteinSequence("b", "MTAYAK")
        aln = global_align(a, b)
        assert aln.aligned_a.replace(alphabet.GAP, "") == a.residues
        assert aln.aligned_b.replace(alphabet.GAP, "") == b.residues

    def test_invalid_gap_penalties(self):
        a = ProteinSequence("a", "MKT")
        with pytest.raises(AlignmentError):
            global_align(a, a, gap_open=-1)
        with pytest.raises(AlignmentError):
            global_align(a, a, gap_open=1, gap_extend=5)

    @settings(max_examples=40, deadline=None)
    @given(residue_text, residue_text)
    def test_property_degap_and_score_consistency(self, text_a, text_b):
        a, b = ProteinSequence("a", text_a), ProteinSequence("b", text_b)
        aln = global_align(a, b)
        assert aln.aligned_a.replace(alphabet.GAP, "") == a.residues
        assert aln.aligned_b.replace(alphabet.GAP, "") == b.residues
        assert len(aln.aligned_a) == len(aln.aligned_b)
        assert aln.score == _score_alignment(aln.aligned_a, aln.aligned_b)

    @settings(max_examples=30, deadline=None)
    @given(residue_text, residue_text)
    def test_property_symmetry_of_score(self, text_a, text_b):
        a, b = ProteinSequence("a", text_a), ProteinSequence("b", text_b)
        forward = global_align(a, b)
        backward = global_align(b, a)
        assert forward.score == backward.score

    @settings(max_examples=30, deadline=None)
    @given(residue_text)
    def test_property_self_alignment_is_perfect(self, text):
        seq = ProteinSequence("a", text)
        aln = global_align(seq, ProteinSequence("b", text))
        assert aln.identity == 1.0
        assert alphabet.GAP not in aln.aligned_a


class TestLocalAlign:
    def test_finds_embedded_motif(self):
        hay = ProteinSequence("h", "GGGGGAKQRQISFGGGGG")
        needle = ProteinSequence("n", "AKQRQISF")
        aln = local_align(hay, needle)
        assert aln.aligned_a == "AKQRQISF"
        assert aln.aligned_b == "AKQRQISF"

    def test_unrelated_sequences_score_zero_or_small(self):
        # Glycine-vs-tryptophan runs score negative everywhere.
        aln = local_align(ProteinSequence("a", "GGGG"),
                          ProteinSequence("b", "WWWW"))
        assert aln.score == 0
        assert aln.aligned_a == ""

    def test_local_score_at_least_best_pair(self):
        a = ProteinSequence("a", "AWA")
        b = ProteinSequence("b", "CWC")
        aln = local_align(a, b)
        assert aln.score >= BLOSUM62.score("W", "W")

    @settings(max_examples=30, deadline=None)
    @given(residue_text, residue_text)
    def test_property_local_never_negative(self, text_a, text_b):
        aln = local_align(ProteinSequence("a", text_a),
                          ProteinSequence("b", text_b))
        assert aln.score >= 0
        assert len(aln.aligned_a) == len(aln.aligned_b)

    @settings(max_examples=30, deadline=None)
    @given(residue_text)
    def test_property_local_self_is_global_self(self, text):
        seq = ProteinSequence("a", text)
        loc = local_align(seq, ProteinSequence("b", text))
        expected = sum(BLOSUM62.score(c, c) for c in text)
        assert loc.score == max(expected, 0)

    def test_aligned_substrings_come_from_inputs(self):
        a = ProteinSequence("a", "MKTAYWAKQRQISF")
        b = ProteinSequence("b", "TAYWAKQ")
        aln = local_align(a, b)
        assert aln.aligned_a.replace(alphabet.GAP, "") in a.residues
        assert aln.aligned_b.replace(alphabet.GAP, "") in b.residues


class TestAlignmentObject:

    def test_matched_columns_excludes_gaps(self):
        a = ProteinSequence("a", "MKTAY")
        b = ProteinSequence("b", "MKT")
        aln = global_align(a, b)
        assert aln.matched_columns() == [("M", "M"), ("K", "K"), ("T", "T")]

    def test_mismatched_lengths_rejected(self):
        from repro.bio.align import PairwiseAlignment
        a = ProteinSequence("a", "MK")
        with pytest.raises(AlignmentError):
            PairwiseAlignment(a, a, "MK", "M", 0, "global")
