"""Tests for pairwise global alignment (Needleman–Wunsch)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bio import BLOSUM62, ProteinSequence, global_align
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


def _all_alignments(text_a, text_b):
    """Every global alignment of two strings, as aligned string pairs."""
    if not text_a and not text_b:
        return [("", "")]
    out = []
    if text_a and text_b:
        out += [(text_a[0] + x, text_b[0] + y)
                for x, y in _all_alignments(text_a[1:], text_b[1:])]
    if text_a:
        out += [(text_a[0] + x, alphabet.GAP + y)
                for x, y in _all_alignments(text_a[1:], text_b)]
    if text_b:
        out += [(alphabet.GAP + x, text_b[0] + y)
                for x, y in _all_alignments(text_a, text_b[1:])]
    return out


class TestGlobalAlign:
    def test_identical_sequences_align_without_gaps(self):
        seq = ProteinSequence("a", "MKTAYIAKQR")
        aln = global_align(seq, ProteinSequence("b", "MKTAYIAKQR"))
        assert aln.aligned_a == aln.aligned_b == "MKTAYIAKQR"
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
        assert aln.aligned_a == aln.aligned_b == text


    @settings(max_examples=40, deadline=None)
    @given(st.text(alphabet="AWKDC", min_size=1, max_size=4),
           st.text(alphabet="AWKDC", min_size=1, max_size=4))
    def test_property_score_is_optimal(self, text_a, text_b):
        """No alignment of two short sequences scores above the reported
        one, checked by enumerating every alignment."""
        aln = global_align(ProteinSequence("a", text_a),
                           ProteinSequence("b", text_b))
        best = max(_score_alignment(x, y)
                   for x, y in _all_alignments(text_a, text_b))
        assert aln.score == best

    @pytest.mark.parametrize("res_a,res_b", [("A", "A"), ("W", "C"),
                                             ("P", "F")])
    def test_single_residues_are_paired(self, res_a, res_b):
        """One residue each: a substitution beats two gap openings."""
        aln = global_align(ProteinSequence("a", res_a),
                           ProteinSequence("b", res_b))
        assert (aln.aligned_a, aln.aligned_b) == (res_a, res_b)
        assert aln.score == BLOSUM62.score(res_a, res_b)

    def test_free_gaps_pair_the_best_identity(self):
        """With zero gap costs, shifting W against W (11) beats the two
        mismatches on the diagonal (-3 - 3) and shifting A against A
        (4); the crossed pairs cannot both be kept."""
        aln = global_align(ProteinSequence("a", "AW"),
                           ProteinSequence("b", "WA"), gap_open=0,
                           gap_extend=0)
        assert aln.score == 11
        assert aln.matched_columns() == [("W", "W")]

    @settings(max_examples=20, deadline=None)
    @given(residue_text, residue_text)
    def test_property_linear_gaps_rescore(self, text_a, text_b):
        """Equal opening and extension costs (a linear gap model) are
        accepted and the score still re-scores exactly."""
        aln = global_align(ProteinSequence("a", text_a),
                           ProteinSequence("b", text_b), gap_open=4,
                           gap_extend=4)
        assert aln.score == _score_alignment(aln.aligned_a, aln.aligned_b,
                                             gap_open=4, gap_extend=4)

    def test_negative_extension_rejected(self):
        a = ProteinSequence("a", "MKT")
        with pytest.raises(AlignmentError):
            global_align(a, a, gap_open=11, gap_extend=-1)


class TestAlignmentObject:
    def test_length_is_the_column_count(self):
        aln = global_align(ProteinSequence("a", "MKTAY"),
                           ProteinSequence("b", "MKT"))
        assert len(aln) == len(aln.aligned_a) == 5

    def test_matched_columns_excludes_gaps(self):
        a = ProteinSequence("a", "MKTAY")
        b = ProteinSequence("b", "MKT")
        aln = global_align(a, b)
        assert aln.matched_columns() == [("M", "M"), ("K", "K"), ("T", "T")]

    def test_mismatched_lengths_rejected(self):
        from repro.bio.align import PairwiseAlignment
        a = ProteinSequence("a", "MK")
        with pytest.raises(AlignmentError):
            PairwiseAlignment(a, a, "MK", "M", 0)
