"""Tests for substitution matrices."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bio import BLOSUM62
from repro.bio import alphabet
from repro.errors import SequenceError

residues = st.sampled_from(alphabet.AMINO_ACIDS)


class TestKnownScores:
    """Spot-check published values of the matrix."""

    @pytest.mark.parametrize("a,b,score", [
        ("W", "W", 11), ("A", "A", 4), ("C", "C", 9),
        ("W", "C", -2), ("A", "R", -1), ("I", "V", 3),
        ("D", "E", 2), ("K", "R", 2), ("F", "Y", 3),
    ])
    def test_blosum62(self, a, b, score):
        assert BLOSUM62.score(a, b) == score

    @pytest.mark.parametrize("a,b,score", [
        ("H", "Y", 2), ("N", "D", 1), ("S", "T", 1), ("I", "L", 2),
        ("G", "W", -2), ("P", "F", -4), ("M", "L", 2), ("E", "Q", 2),
        ("W", "Y", 2), ("C", "E", -4),
    ])
    def test_blosum62_off_diagonal(self, a, b, score):
        assert BLOSUM62.score(a, b) == BLOSUM62.score(b, a) == score

    @pytest.mark.parametrize("residue,score", list(zip(
        "ARNDCQEGHILKMFPSTWYV",
        (4, 5, 6, 6, 9, 5, 5, 6, 8, 4, 4, 5, 5, 6, 7, 4, 5, 11, 7, 4),
    )))
    def test_blosum62_diagonal(self, residue, score):
        """The published self-substitution score of every residue."""
        assert BLOSUM62.score(residue, residue) == score


class TestMatrixProperties:
    @given(residues, residues)
    def test_blosum62_symmetric(self, a, b):
        assert BLOSUM62.score(a, b) == BLOSUM62.score(b, a)

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
        table = BLOSUM62.as_array()
        assert np.array_equal(table, table.T)

    def test_scores_span_the_published_range(self):
        table = BLOSUM62.as_array()
        assert table.min() == -4 and table.max() == 11

    def test_ambiguity_z_reads_as_glutamate(self):
        assert all(BLOSUM62.score("Z", b) == BLOSUM62.score("E", b)
                   for b in alphabet.AMINO_ACIDS)

    def test_bad_residue_raises(self):
        with pytest.raises(SequenceError):
            BLOSUM62.score("A", "1")

