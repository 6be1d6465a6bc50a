"""Evolutionary distances between protein sequences.

Provides the classic distance corrections used to build phylogenies from
alignments (p-distance, Kimura) and a :class:`DistanceMatrix`
value type shared by the tree-building algorithms.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.bio import alphabet
from repro.bio.align import PairwiseAlignment, global_align
from repro.bio.matrices import BLOSUM62, SubstitutionMatrix
from repro.bio.seq import ProteinSequence
from repro.errors import AlignmentError, TreeError

#: Cap applied when a correction formula diverges (p close to saturation).
MAX_DISTANCE = 10.0


def p_distance(alignment: PairwiseAlignment) -> float:
    """Proportion of differing residues over gap-free columns."""
    columns = alignment.matched_columns()
    if not columns:
        raise AlignmentError("alignment has no gap-free columns")
    diffs = sum(res_a != res_b for res_a, res_b in columns)
    return diffs / len(columns)


def kimura_distance(alignment: PairwiseAlignment) -> float:
    """Kimura's (1983) empirical protein distance correction.

    ``d = -ln(1 - p - 0.2 p^2)``; accurate for p below roughly 0.75 and
    capped at :data:`MAX_DISTANCE` beyond that.
    """
    p = p_distance(alignment)
    inner = 1.0 - p - 0.2 * p * p
    if inner <= 0.0:
        return MAX_DISTANCE
    return min(-math.log(inner), MAX_DISTANCE)


#: Named correction functions, for configuration-driven selection.
CORRECTIONS: dict[str, Callable[[PairwiseAlignment], float]] = {
    "p": p_distance,
    "kimura": kimura_distance,
}


@dataclass(frozen=True)
class DistanceMatrix:
    """A symmetric matrix of pairwise distances between named taxa."""

    names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.names)
        if len(set(self.names)) != n:
            raise TreeError("distance matrix taxa must be unique")
        if self.values.shape != (n, n):
            raise TreeError(
                f"distance matrix shape {self.values.shape} does not match "
                f"{n} taxa"
            )
        if not np.allclose(self.values, self.values.T):
            raise TreeError("distance matrix must be symmetric")
        if not np.allclose(np.diag(self.values), 0.0):
            raise TreeError("distance matrix diagonal must be zero")
        if (self.values < 0).any():
            raise TreeError("distances must be non-negative")
        self.values.setflags(write=False)

    def __len__(self) -> int:
        return len(self.names)

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise TreeError(f"unknown taxon {name!r}") from None

    def get(self, name_a: str, name_b: str) -> float:
        """Distance between two taxa by name."""
        return float(self.values[self.index_of(name_a), self.index_of(name_b)])


def distance_matrix(sequences: Sequence[ProteinSequence],
                    correction: str = "kimura",
                    matrix: SubstitutionMatrix = BLOSUM62,
                    gap_open: int = 11, gap_extend: int = 1,
                    ) -> DistanceMatrix:
    """All-pairs evolutionary distances from global alignments.

    Aligns every pair with Needleman–Wunsch and applies the named
    *correction* (``p`` or ``kimura``).
    """
    try:
        correct = CORRECTIONS[correction]
    except KeyError:
        known = ", ".join(sorted(CORRECTIONS))
        raise AlignmentError(
            f"unknown distance correction {correction!r} (known: {known})"
        ) from None
    names = tuple(seq.seq_id for seq in sequences)
    n = len(sequences)
    if n < 2:
        raise AlignmentError("need at least two sequences for distances")
    values = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            aln = global_align(sequences[i], sequences[j], matrix=matrix,
                               gap_open=gap_open, gap_extend=gap_extend)
            dist = correct(aln)
            values[i, j] = dist
            values[j, i] = dist
    return DistanceMatrix(names, values)


def distance_matrix_from_msa(names: Sequence[str],
                             rows: Sequence[str],
                             correction: str = "kimura") -> DistanceMatrix:
    """Distances from pre-aligned rows of a multiple alignment.

    *rows* are equal-length aligned strings (with gaps); pairwise
    distances consider only columns where neither row has a gap.
    """
    try:
        correct = CORRECTIONS[correction]
    except KeyError:
        known = ", ".join(sorted(CORRECTIONS))
        raise AlignmentError(
            f"unknown distance correction {correction!r} (known: {known})"
        ) from None
    if len(names) != len(rows):
        raise AlignmentError("names and rows must have equal length")
    widths = {len(row) for row in rows}
    if len(widths) > 1:
        raise AlignmentError("alignment rows have differing widths")
    n = len(rows)
    values = np.zeros((n, n), dtype=np.float64)
    # Wrap each row pair in a PairwiseAlignment so the correction
    # functions see the same interface as the pairwise path.
    placeholder = {
        name: ProteinSequence(name, rows[i].replace(alphabet.GAP, "") or "A")
        for i, name in enumerate(names)
    }
    for i in range(n):
        for j in range(i + 1, n):
            aln = PairwiseAlignment(
                placeholder[names[i]], placeholder[names[j]],
                rows[i], rows[j], score=0, mode="msa",
            )
            dist = correct(aln)
            values[i, j] = dist
            values[j, i] = dist
    return DistanceMatrix(tuple(names), values)
