"""Tests for substitution matrices."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bio import BLOSUM62, PAM250
from repro.bio import alphabet
from repro.errors import SequenceError

residues = st.sampled_from(alphabet.AMINO_ACIDS)


class TestKnownScores:
    """Spot-check published values of both matrices."""

    @pytest.mark.parametrize("a,b,score", [
        ("W", "W", 11), ("A", "A", 4), ("C", "C", 9),
        ("W", "C", -2), ("A", "R", -1), ("I", "V", 3),
        ("D", "E", 2), ("K", "R", 2), ("F", "Y", 3),
    ])
    def test_blosum62(self, a, b, score):
        assert BLOSUM62.score(a, b) == score

    @pytest.mark.parametrize("a,b,score", [
        ("W", "W", 17), ("C", "C", 12), ("A", "A", 2),
        ("F", "Y", 7), ("W", "C", -8), ("I", "V", 4),
    ])
    def test_pam250(self, a, b, score):
        assert PAM250.score(a, b) == score


class TestMatrixProperties:
    @given(residues, residues)
    def test_blosum62_symmetric(self, a, b):
        assert BLOSUM62.score(a, b) == BLOSUM62.score(b, a)

    @given(residues, residues)
    def test_pam250_symmetric(self, a, b):
        assert PAM250.score(a, b) == PAM250.score(b, a)

    @given(residues)
    def test_diagonal_dominates_blosum(self, a):
        """Self-score is at least any substitution score for that residue."""
        assert all(
            BLOSUM62.score(a, a) >= BLOSUM62.score(a, b)
            for b in alphabet.AMINO_ACIDS
        )

    def test_ambiguity_codes_resolve(self):
        assert BLOSUM62.score("B", "B") == BLOSUM62.score("D", "D")
        assert BLOSUM62.score("X", "K") == BLOSUM62.score("A", "K")

    def test_as_array_matches_score(self):
        table = BLOSUM62.as_array()
        for i, a in enumerate(alphabet.AMINO_ACIDS):
            for j, b in enumerate(alphabet.AMINO_ACIDS):
                assert table[i, j] == BLOSUM62.score(a, b)

    def test_as_array_symmetric(self):
        table = PAM250.as_array()
        assert np.array_equal(table, table.T)

    def test_bad_residue_raises(self):
        with pytest.raises(SequenceError):
            BLOSUM62.score("A", "1")

