"""Evolutionary distances between protein sequences.

Provides Kimura's protein distance correction, which turns a global
alignment's proportion of differing residues into an evolutionary
distance, and the :class:`DistanceMatrix` value type neighbor-joining
reads.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.bio.align import PairwiseAlignment, global_align
from repro.bio.seq import ProteinSequence
from repro.errors import AlignmentError, TreeError

#: Cap applied when Kimura's formula diverges (p close to saturation).
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


def distance_matrix(sequences: Sequence[ProteinSequence]) -> DistanceMatrix:
    """All-pairs Kimura distances from Needleman–Wunsch alignments."""
    names = tuple(seq.seq_id for seq in sequences)
    n = len(sequences)
    if n < 2:
        raise AlignmentError("need at least two sequences for distances")
    values = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            dist = kimura_distance(global_align(sequences[i], sequences[j]))
            values[i, j] = dist
            values[j, i] = dist
    return DistanceMatrix(names, values)
