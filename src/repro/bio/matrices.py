"""Substitution matrices (BLOSUM62, PAM250) for protein alignment.

The matrices are stored in the conventional ``ARNDCQEGHILKMFPSTWYV``
publication order and exposed through :class:`SubstitutionMatrix`, which
resolves ambiguity codes and validates symmetry on construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bio import alphabet
from repro.errors import SequenceError

#: Residue order used by the raw matrix literals below.
MATRIX_ORDER = "ARNDCQEGHILKMFPSTWYV"

_BLOSUM62_ROWS = """
 4 -1 -2 -2  0 -1 -1  0 -2 -1 -1 -1 -1 -2 -1  1  0 -3 -2  0
-1  5  0 -2 -3  1  0 -2  0 -3 -2  2 -1 -3 -2 -1 -1 -3 -2 -3
-2  0  6  1 -3  0  0  0  1 -3 -3  0 -2 -3 -2  1  0 -4 -2 -3
-2 -2  1  6 -3  0  2 -1 -1 -3 -4 -1 -3 -3 -1  0 -1 -4 -3 -3
 0 -3 -3 -3  9 -3 -4 -3 -3 -1 -1 -3 -1 -2 -3 -1 -1 -2 -2 -1
-1  1  0  0 -3  5  2 -2  0 -3 -2  1  0 -3 -1  0 -1 -2 -1 -2
-1  0  0  2 -4  2  5 -2  0 -3 -3  1 -2 -3 -1  0 -1 -3 -2 -2
 0 -2  0 -1 -3 -2 -2  6 -2 -4 -4 -2 -3 -3 -2  0 -2 -2 -3 -3
-2  0  1 -1 -3  0  0 -2  8 -3 -3 -1 -2 -1 -2 -1 -2 -2  2 -3
-1 -3 -3 -3 -1 -3 -3 -4 -3  4  2 -3  1  0 -3 -2 -1 -3 -1  3
-1 -2 -3 -4 -1 -2 -3 -4 -3  2  4 -2  2  0 -3 -2 -1 -2 -1  1
-1  2  0 -1 -3  1  1 -2 -1 -3 -2  5 -1 -3 -1  0 -1 -3 -2 -2
-1 -1 -2 -3 -1  0 -2 -3 -2  1  2 -1  5  0 -2 -1 -1 -1 -1  1
-2 -3 -3 -3 -2 -3 -3 -3 -1  0  0 -3  0  6 -4 -2 -2  1  3 -1
-1 -2 -2 -1 -3 -1 -1 -2 -2 -3 -3 -1 -2 -4  7 -1 -1 -4 -3 -2
 1 -1  1  0 -1  0  0  0 -1 -2 -2  0 -1 -2 -1  4  1 -3 -2 -2
 0 -1  0 -1 -1 -1 -1 -2 -2 -1 -1 -1 -1 -2 -1  1  5 -2 -2  0
-3 -3 -4 -4 -2 -2 -3 -2 -2 -3 -2 -3 -1  1 -4 -3 -2 11  2 -3
-2 -2 -2 -3 -2 -1 -2 -3  2 -1 -1 -2 -1  3 -3 -2 -2  2  7 -1
 0 -3 -3 -3 -1 -2 -2 -3 -3  3  1 -2  1 -1 -2 -2  0 -3 -1  4
"""

_PAM250_ROWS = """
 2 -2  0  0 -2  0  0  1 -1 -1 -2 -1 -1 -3  1  1  1 -6 -3  0
-2  6  0 -1 -4  1 -1 -3  2 -2 -3  3  0 -4  0  0 -1  2 -4 -2
 0  0  2  2 -4  1  1  0  2 -2 -3  1 -2 -3  0  1  0 -4 -2 -2
 0 -1  2  4 -5  2  3  1  1 -2 -4  0 -3 -6 -1  0  0 -7 -4 -2
-2 -4 -4 -5 12 -5 -5 -3 -3 -2 -6 -5 -5 -4 -3  0 -2 -8  0 -2
 0  1  1  2 -5  4  2 -1  3 -2 -2  1 -1 -5  0 -1 -1 -5 -4 -2
 0 -1  1  3 -5  2  4  0  1 -2 -3  0 -2 -5 -1  0  0 -7 -4 -2
 1 -3  0  1 -3 -1  0  5 -2 -3 -4 -2 -3 -5  0  1  0 -7 -5 -1
-1  2  2  1 -3  3  1 -2  6 -2 -2  0 -2 -2  0 -1 -1 -3  0 -2
-1 -2 -2 -2 -2 -2 -2 -3 -2  5  2 -2  2  1 -2 -1  0 -5 -1  4
-2 -3 -3 -4 -6 -2 -3 -4 -2  2  6 -3  4  2 -3 -3 -2 -2 -1  2
-1  3  1  0 -5  1  0 -2  0 -2 -3  5  0 -5 -1  0  0 -3 -4 -2
-1  0 -2 -3 -5 -1 -2 -3 -2  2  4  0  6  0 -2 -2 -1 -4 -2  2
-3 -4 -3 -6 -4 -5 -5 -5 -2  1  2 -5  0  9 -5 -3 -3  0  7 -1
 1  0  0 -1 -3  0 -1  0  0 -2 -3 -1 -2 -5  6  1  0 -6 -5 -1
 1  0  1  0  0 -1  0  1 -1 -1 -3  0 -2 -3  1  2  1 -2 -3 -1
 1 -1  0  0 -2 -1  0  0 -1  0 -2  0 -1 -3  0  1  3 -5 -3  0
-6  2 -4 -7 -8 -5 -7 -7 -3 -5 -2 -3 -4  0 -6 -2 -5 17  0 -6
-3 -4 -2 -4  0 -4 -4 -5  0 -1 -1 -4 -2  7 -5 -3 -3  0 10 -2
 0 -2 -2 -2 -2 -2 -2 -1 -2  4  2 -2  2 -1 -1 -1  0 -6 -2  4
"""


def _parse_rows(text: str) -> np.ndarray:
    rows = [
        [int(value) for value in line.split()]
        for line in text.strip().splitlines()
    ]
    matrix = np.array(rows, dtype=np.int64)
    if matrix.shape != (20, 20):
        raise ValueError(f"bad matrix shape {matrix.shape}")
    return matrix


@dataclass(frozen=True)
class SubstitutionMatrix:
    """A symmetric residue substitution scoring matrix.

    Scores are looked up with :meth:`score`, which resolves ambiguity
    codes (B/Z/X) through :func:`repro.bio.alphabet.canonicalize`.
    """

    name: str
    _scores: dict[tuple[str, str], int]

    @classmethod
    def from_rows(cls, name: str, matrix: np.ndarray,
                  order: str = MATRIX_ORDER) -> "SubstitutionMatrix":
        """Build a matrix from a square array in residue *order*."""
        if matrix.shape != (len(order), len(order)):
            raise ValueError("matrix shape does not match residue order")
        if not np.array_equal(matrix, matrix.T):
            raise ValueError(f"substitution matrix {name!r} is not symmetric")
        scores = {
            (a, b): int(matrix[i, j])
            for i, a in enumerate(order)
            for j, b in enumerate(order)
        }
        return cls(name, scores)

    def score(self, res_a: str, res_b: str) -> int:
        """Substitution score between two one-letter residue codes."""
        key = (alphabet.canonicalize(res_a), alphabet.canonicalize(res_b))
        try:
            return self._scores[key]
        except KeyError:
            raise SequenceError(
                f"cannot score residue pair {res_a!r}/{res_b!r}"
            ) from None

    def as_array(self, order: str = alphabet.AMINO_ACIDS) -> np.ndarray:
        """Scores as a dense array in the given residue *order*."""
        size = len(order)
        out = np.empty((size, size), dtype=np.int64)
        for i, res_a in enumerate(order):
            for j, res_b in enumerate(order):
                out[i, j] = self._scores[(res_a, res_b)]
        return out


BLOSUM62 = SubstitutionMatrix.from_rows("BLOSUM62", _parse_rows(_BLOSUM62_ROWS))
PAM250 = SubstitutionMatrix.from_rows("PAM250", _parse_rows(_PAM250_ROWS))
