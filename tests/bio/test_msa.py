"""Tests for progressive multiple sequence alignment."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bio import (
    MultipleAlignment,
    ProteinSequence,
    progressive_align,
)
from repro.bio import alphabet
from repro.bio.simulate import birth_death_tree, evolve_sequences
from repro.errors import AlignmentError

residue_text = st.text(alphabet="ACDEFGHIKL", min_size=5, max_size=25)


class TestMultipleAlignmentObject:
    def test_rejects_ragged_rows(self):
        with pytest.raises(AlignmentError):
            MultipleAlignment(("a", "b"), ("MKT", "MKTA"))

    def test_rejects_name_row_mismatch(self):
        with pytest.raises(AlignmentError):
            MultipleAlignment(("a",), ("MKT", "MKT"))

    def test_column_access(self):
        msa = MultipleAlignment(("a", "b"), ("MKT", "MAT"))
        assert msa.column(1) == "KA"

    def test_row_by_name(self):
        msa = MultipleAlignment(("a", "b"), ("MKT", "MAT"))
        assert msa.row("b") == "MAT"
        with pytest.raises(AlignmentError):
            msa.row("zz")


class TestProgressiveAlign:
    def test_single_sequence(self):
        msa = progressive_align([ProteinSequence("a", "MKT")])
        assert msa.rows == ("MKT",)

    def test_identical_sequences_no_gaps(self):
        seqs = [ProteinSequence(f"s{i}", "MKTAYIAKQR") for i in range(4)]
        msa = progressive_align(seqs)
        assert all(alphabet.GAP not in row for row in msa.rows)
        assert msa.width == 10

    def test_preserves_input_order(self):
        seqs = [
            ProteinSequence("zeta", "MKTAYIAK"),
            ProteinSequence("alpha", "MKTAYIK"),
            ProteinSequence("mid", "MKTAYIAKQ"),
        ]
        msa = progressive_align(seqs)
        assert msa.names == ("zeta", "alpha", "mid")

    def test_rows_degap_to_inputs(self):
        seqs = [
            ProteinSequence("s1", "MKTAYIAKQRQISFVK"),
            ProteinSequence("s2", "MKTAYIAKQISFVK"),
            ProteinSequence("s3", "MKTAYIWAKQRQISFVK"),
        ]
        msa = progressive_align(seqs)
        for seq in seqs:
            assert msa.row(seq.seq_id).replace("-", "") == seq.residues

    def test_duplicate_ids_rejected(self):
        seqs = [ProteinSequence("a", "MKT"), ProteinSequence("a", "MKA")]
        with pytest.raises(AlignmentError, match="duplicate"):
            progressive_align(seqs)

    def test_empty_input_rejected(self):
        with pytest.raises(AlignmentError):
            progressive_align([])

    def test_guide_tree_must_match(self):
        seqs = [ProteinSequence("a", "MKT"), ProteinSequence("b", "MKA")]
        wrong_tree = birth_death_tree(3, seed=0)
        with pytest.raises(AlignmentError, match="guide tree"):
            progressive_align(seqs, guide_tree=wrong_tree)

    def test_related_family_aligns_conserved_core(self):
        tree = birth_death_tree(6, seed=3)
        seqs = evolve_sequences(tree, length=50, seed=4)
        msa = progressive_align(seqs)
        assert len(msa) == 6
        # Evolution is substitution-only, so no gaps should be needed.
        assert msa.width == 50

    @settings(max_examples=20, deadline=None)
    @given(st.lists(residue_text, min_size=2, max_size=5))
    def test_property_degapping_recovers_inputs(self, texts):
        seqs = [
            ProteinSequence(f"s{i}", text) for i, text in enumerate(texts)
        ]
        msa = progressive_align(seqs)
        for seq in seqs:
            assert msa.row(seq.seq_id).replace("-", "") == seq.residues
        assert msa.width >= max(len(t) for t in texts)
