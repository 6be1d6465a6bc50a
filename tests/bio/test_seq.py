"""Tests for ProteinSequence and FASTA I/O."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bio import ProteinSequence, parse_fasta, write_fasta
from repro.bio import alphabet
from repro.errors import SequenceError

residue_text = st.text(alphabet=alphabet.AMINO_ACIDS, min_size=1,
                       max_size=80)


class TestProteinSequence:
    def test_basic_construction(self):
        seq = ProteinSequence("P1", "mktay", "test protein")
        assert seq.residues == "MKTAY"
        assert len(seq) == 5
        assert seq.description == "test protein"

    def test_rejects_empty_id(self):
        with pytest.raises(SequenceError):
            ProteinSequence("", "MKT")

    def test_rejects_invalid_residue(self):
        with pytest.raises(SequenceError):
            ProteinSequence("P1", "MKT1")

    def test_equality_ignores_description(self):
        a = ProteinSequence("P1", "MKT", "one")
        b = ProteinSequence("P1", "MKT", "two")
        assert a == b
        assert hash(a) == hash(b)

    def test_indexing_and_iteration(self):
        seq = ProteinSequence("P1", "MKTAY")
        assert seq[0] == "M"
        assert seq[1:3] == "KT"
        assert list(seq) == list("MKTAY")

    def test_identity_equal_sequences(self):
        a = ProteinSequence("a", "MKTAY")
        assert a.identity(ProteinSequence("b", "MKTAY")) == 1.0

    def test_identity_requires_equal_length(self):
        a = ProteinSequence("a", "MKTAY")
        with pytest.raises(SequenceError):
            a.identity(ProteinSequence("b", "MKT"))


class TestFasta:
    def test_parse_single_record(self):
        seqs = parse_fasta(">P1 desc here\nMKTAY\n")
        assert len(seqs) == 1
        assert seqs[0].seq_id == "P1"
        assert seqs[0].description == "desc here"
        assert seqs[0].residues == "MKTAY"

    def test_parse_multiline_record(self):
        seqs = parse_fasta(">P1\nMKT\nAYI\n")
        assert seqs[0].residues == "MKTAYI"

    def test_parse_multiple_records_and_comments(self):
        text = "; a comment\n>P1\nMKT\n\n>P2\nAYI\n"
        seqs = parse_fasta(text)
        assert [s.seq_id for s in seqs] == ["P1", "P2"]

    def test_rejects_data_before_header(self):
        with pytest.raises(SequenceError, match="before any FASTA header"):
            parse_fasta("MKT\n>P1\nAYI\n")

    def test_rejects_empty_record(self):
        with pytest.raises(SequenceError, match="no residues"):
            parse_fasta(">P1\n>P2\nMKT\n")

    def test_rejects_duplicate_ids(self):
        with pytest.raises(SequenceError, match="duplicate"):
            parse_fasta(">P1\nMKT\n>P1\nAYI\n")

    def test_rejects_header_without_id(self):
        with pytest.raises(SequenceError, match="no identifier"):
            parse_fasta(">\nMKT\n")

    def test_wrapping_respects_width(self):
        seq = ProteinSequence("P1", "A" * 130)
        lines = seq.to_fasta(width=60).splitlines()
        assert [len(line) for line in lines[1:]] == [60, 60, 10]

    @given(st.lists(residue_text, min_size=1, max_size=8, unique=True))
    def test_roundtrip(self, texts):
        originals = [
            ProteinSequence(f"S{i}", text) for i, text in enumerate(texts)
        ]
        recovered = parse_fasta(write_fasta(originals))
        assert recovered == originals
