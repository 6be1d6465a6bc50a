"""Tests for the amino-acid alphabet module."""


import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bio import alphabet
from repro.errors import SequenceError


class TestValidate:
    def test_accepts_all_standard_residues(self):
        assert alphabet.validate(alphabet.AMINO_ACIDS) == alphabet.AMINO_ACIDS

    def test_accepts_ambiguity_codes(self):
        assert alphabet.validate("BZX") == "BZX"

    def test_uppercases_input(self):
        assert alphabet.validate("acdef") == "ACDEF"

    def test_rejects_empty(self):
        with pytest.raises(SequenceError, match="empty"):
            alphabet.validate("")

    def test_rejects_bad_residue_with_position(self):
        with pytest.raises(SequenceError, match="position 2"):
            alphabet.validate("AC1DE")

    def test_rejects_gap_character(self):
        with pytest.raises(SequenceError):
            alphabet.validate("AC-DE")


class TestCanonicalize:
    def test_resolves_all_ambiguity_codes(self):
        assert alphabet.canonicalize("BZX") == "DEA"

    def test_identity_on_canonical_text(self):
        text = "ACDEFGHIKLMNPQRSTVWY"
        assert alphabet.canonicalize(text) is text

    @given(st.text(alphabet=alphabet.AMINO_ACIDS + "BZX", min_size=1,
                   max_size=50))
    def test_output_never_contains_ambiguity(self, text):
        out = alphabet.canonicalize(text)
        assert not set(out) & set("BZX")
        assert len(out) == len(text)


class TestIndex:
    def test_index_covers_alphabet(self):
        assert len(alphabet.AA_INDEX) == 20
        assert all(
            alphabet.AMINO_ACIDS[i] == aa
            for aa, i in alphabet.AA_INDEX.items()
        )

    def test_three_letter_codes_complete(self):
        assert set(alphabet.THREE_LETTER) == set(alphabet.AMINO_ACIDS)
        assert all(len(code) == 3 for code in alphabet.THREE_LETTER.values())
