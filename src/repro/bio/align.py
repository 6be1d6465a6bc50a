"""Pairwise protein alignment: Needleman–Wunsch and Smith–Waterman.

Both algorithms use affine gap penalties (Gotoh's three-state recurrence)
and vectorised numpy inner loops so that aligning the hundreds of
sequence pairs needed to build a distance matrix stays fast enough for
interactive use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bio import alphabet
from repro.bio.matrices import BLOSUM62, SubstitutionMatrix
from repro.bio.seq import ProteinSequence
from repro.errors import AlignmentError

_NEG_INF = np.int64(np.iinfo(np.int64).min // 4)

# Traceback codes for the match state.
_FROM_MATCH, _FROM_GAP_A, _FROM_GAP_B = 0, 1, 2


@dataclass(frozen=True, slots=True)
class PairwiseAlignment:
    """Result of aligning two sequences.

    ``aligned_a`` and ``aligned_b`` are equal-length strings over the
    residue alphabet plus the gap character ``-``.
    """

    seq_a: ProteinSequence
    seq_b: ProteinSequence
    aligned_a: str
    aligned_b: str
    score: int
    mode: str

    def __post_init__(self) -> None:
        if len(self.aligned_a) != len(self.aligned_b):
            raise AlignmentError("aligned strings have different lengths")

    def __len__(self) -> int:
        return len(self.aligned_a)

    @property
    def identity(self) -> float:
        """Fraction of aligned (non-double-gap) columns that match."""
        matches = 0
        columns = 0
        for res_a, res_b in zip(self.aligned_a, self.aligned_b):
            if res_a == alphabet.GAP and res_b == alphabet.GAP:
                continue
            columns += 1
            if res_a == res_b:
                matches += 1
        return matches / columns if columns else 0.0

    def matched_columns(self) -> list[tuple[str, str]]:
        """Columns where neither side is a gap, as residue pairs."""
        return [
            (res_a, res_b)
            for res_a, res_b in zip(self.aligned_a, self.aligned_b)
            if res_a != alphabet.GAP and res_b != alphabet.GAP
        ]


def _encode(residues: str) -> np.ndarray:
    canonical = alphabet.canonicalize(residues)
    return np.fromiter(
        (alphabet.AA_INDEX[aa] for aa in canonical),
        dtype=np.int64,
        count=len(canonical),
    )


def _pair_scores(matrix: SubstitutionMatrix,
                 enc_a: np.ndarray, enc_b: np.ndarray) -> np.ndarray:
    table = matrix.as_array(alphabet.AMINO_ACIDS)
    return table[np.ix_(enc_a, enc_b)]


def _validate_gaps(gap_open: int, gap_extend: int) -> None:
    if gap_open < 0 or gap_extend < 0:
        raise AlignmentError("gap penalties must be non-negative magnitudes")
    if gap_extend > gap_open:
        raise AlignmentError("gap extension must not exceed gap opening")


def global_align(seq_a: ProteinSequence, seq_b: ProteinSequence,
                 matrix: SubstitutionMatrix = BLOSUM62,
                 gap_open: int = 11, gap_extend: int = 1,
                 ) -> PairwiseAlignment:
    """Needleman–Wunsch global alignment with affine gaps.

    *gap_open* is the cost of the first residue of a gap and *gap_extend*
    the cost of each subsequent residue, both given as positive magnitudes
    (the classic BLAST parameterisation: 11/1 with BLOSUM62).
    """
    _validate_gaps(gap_open, gap_extend)
    enc_a, enc_b = _encode(seq_a.residues), _encode(seq_b.residues)
    n, m = len(enc_a), len(enc_b)
    pair = _pair_scores(matrix, enc_a, enc_b)

    # Three-state Gotoh. match[i,j]: best ending in residue/residue;
    # gap_a[i,j]: best ending with a gap in seq_a (consumes b);
    # gap_b[i,j]: best ending with a gap in seq_b (consumes a).
    match = np.full((n + 1, m + 1), _NEG_INF, dtype=np.int64)
    gap_a = np.full((n + 1, m + 1), _NEG_INF, dtype=np.int64)
    gap_b = np.full((n + 1, m + 1), _NEG_INF, dtype=np.int64)
    match[0, 0] = 0
    for j in range(1, m + 1):
        gap_a[0, j] = -(gap_open + (j - 1) * gap_extend)
    for i in range(1, n + 1):
        gap_b[i, 0] = -(gap_open + (i - 1) * gap_extend)

    # Traceback state: which predecessor state fed each cell of each matrix.
    tb_match = np.zeros((n + 1, m + 1), dtype=np.int8)
    tb_gap_a = np.zeros((n + 1, m + 1), dtype=np.int8)
    tb_gap_b = np.zeros((n + 1, m + 1), dtype=np.int8)

    for i in range(1, n + 1):
        prev_m, prev_a, prev_b = match[i - 1], gap_a[i - 1], gap_b[i - 1]
        row_m, row_a, row_b = match[i], gap_a[i], gap_b[i]
        row_pair = pair[i - 1]
        # gap_b (gap in seq_b, consumes a residue of seq_a) only depends on
        # the previous row, so it vectorises across j.
        open_b = np.maximum(prev_m, prev_a) - gap_open
        extend_b = prev_b - gap_extend
        row_b[:] = np.maximum(open_b, extend_b)
        tb_gap_b[i] = np.where(
            extend_b >= open_b, _FROM_GAP_B,
            np.where(prev_m >= prev_a, _FROM_MATCH, _FROM_GAP_A),
        )
        row_b[0] = gap_b[i, 0]
        for j in range(1, m + 1):
            diag_m = prev_m[j - 1]
            diag_a = prev_a[j - 1]
            diag_b = prev_b[j - 1]
            best_diag = diag_m
            state = _FROM_MATCH
            if diag_a > best_diag:
                best_diag, state = diag_a, _FROM_GAP_A
            if diag_b > best_diag:
                best_diag, state = diag_b, _FROM_GAP_B
            row_m[j] = best_diag + row_pair[j - 1]
            tb_match[i, j] = state

            open_a = max(row_m[j - 1], row_b[j - 1]) - gap_open
            extend_a = row_a[j - 1] - gap_extend
            if extend_a >= open_a:
                row_a[j] = extend_a
                tb_gap_a[i, j] = _FROM_GAP_A
            else:
                row_a[j] = open_a
                tb_gap_a[i, j] = (
                    _FROM_MATCH if row_m[j - 1] >= row_b[j - 1] else _FROM_GAP_B
                )

    end_scores = (match[n, m], gap_a[n, m], gap_b[n, m])
    state = int(np.argmax(end_scores))
    score = int(end_scores[state])

    aligned_a, aligned_b = _traceback_global(
        seq_a.residues, seq_b.residues, state,
        tb_match, tb_gap_a, tb_gap_b,
    )
    return PairwiseAlignment(seq_a, seq_b, aligned_a, aligned_b, score,
                             mode="global")


def _traceback_global(res_a: str, res_b: str, state: int,
                      tb_match: np.ndarray, tb_gap_a: np.ndarray,
                      tb_gap_b: np.ndarray) -> tuple[str, str]:
    i, j = len(res_a), len(res_b)
    out_a: list[str] = []
    out_b: list[str] = []
    while i > 0 or j > 0:
        if state == _FROM_MATCH:
            if i == 0 or j == 0:
                # Only gaps remain along an edge.
                state = _FROM_GAP_A if i == 0 else _FROM_GAP_B
                continue
            prev = int(tb_match[i, j])
            out_a.append(res_a[i - 1])
            out_b.append(res_b[j - 1])
            i -= 1
            j -= 1
            state = prev
        elif state == _FROM_GAP_A:
            if j == 0:
                state = _FROM_GAP_B
                continue
            prev = int(tb_gap_a[i, j])
            out_a.append(alphabet.GAP)
            out_b.append(res_b[j - 1])
            j -= 1
            state = prev
        else:  # _FROM_GAP_B
            if i == 0:
                state = _FROM_GAP_A
                continue
            prev = int(tb_gap_b[i, j])
            out_a.append(res_a[i - 1])
            out_b.append(alphabet.GAP)
            i -= 1
            state = prev
    return "".join(reversed(out_a)), "".join(reversed(out_b))


def local_align(seq_a: ProteinSequence, seq_b: ProteinSequence,
                matrix: SubstitutionMatrix = BLOSUM62,
                gap_open: int = 11, gap_extend: int = 1,
                ) -> PairwiseAlignment:
    """Smith–Waterman local alignment with affine gaps.

    Returns the highest-scoring local alignment; for sequences with no
    positively-scoring pair the alignment is empty with score 0.
    """
    _validate_gaps(gap_open, gap_extend)
    enc_a, enc_b = _encode(seq_a.residues), _encode(seq_b.residues)
    n, m = len(enc_a), len(enc_b)
    pair = _pair_scores(matrix, enc_a, enc_b)

    match = np.zeros((n + 1, m + 1), dtype=np.int64)
    gap_a = np.full((n + 1, m + 1), _NEG_INF, dtype=np.int64)
    gap_b = np.full((n + 1, m + 1), _NEG_INF, dtype=np.int64)
    best_score = 0
    best_pos = (0, 0)

    for i in range(1, n + 1):
        prev_m, prev_b = match[i - 1], gap_b[i - 1]
        row_pair = pair[i - 1]
        gap_b[i] = np.maximum(prev_m - gap_open, prev_b - gap_extend)
        row_m, row_a, row_b = match[i], gap_a[i], gap_b[i]
        for j in range(1, m + 1):
            row_a[j] = max(row_m[j - 1] - gap_open, row_a[j - 1] - gap_extend)
            diag = max(prev_m[j - 1], gap_a[i - 1][j - 1], prev_b[j - 1], 0)
            cell = max(0, diag + row_pair[j - 1], row_a[j], row_b[j])
            row_m[j] = cell
            if cell > best_score:
                best_score = int(cell)
                best_pos = (i, j)

    aligned_a, aligned_b = _traceback_local(
        seq_a.residues, seq_b.residues, pair, match, gap_a, gap_b,
        best_pos, gap_open, gap_extend,
    )
    return PairwiseAlignment(seq_a, seq_b, aligned_a, aligned_b,
                             int(best_score), mode="local")


def _traceback_local(res_a: str, res_b: str, pair: np.ndarray,
                     match: np.ndarray, gap_a: np.ndarray,
                     gap_b: np.ndarray, start: tuple[int, int],
                     gap_open: int, gap_extend: int) -> tuple[str, str]:
    # Local traceback recomputes which move produced each cell; this keeps
    # the fill loop free of traceback bookkeeping.
    i, j = start
    out_a: list[str] = []
    out_b: list[str] = []
    state = _FROM_MATCH
    while i > 0 and j > 0:
        if state == _FROM_MATCH:
            if match[i, j] <= 0:
                break
            cell = match[i, j]
            if cell == gap_a[i, j]:
                state = _FROM_GAP_A
                continue
            if cell == gap_b[i, j]:
                state = _FROM_GAP_B
                continue
            out_a.append(res_a[i - 1])
            out_b.append(res_b[j - 1])
            diag_m = match[i - 1, j - 1]
            diag_a = gap_a[i - 1, j - 1]
            diag_b = gap_b[i - 1, j - 1]
            i -= 1
            j -= 1
            best = max(diag_m, diag_a, diag_b, 0)
            if best == 0:
                break
            if best == diag_m:
                state = _FROM_MATCH
            elif best == diag_a:
                state = _FROM_GAP_A
            else:
                state = _FROM_GAP_B
        elif state == _FROM_GAP_A:
            out_a.append(alphabet.GAP)
            out_b.append(res_b[j - 1])
            came_from_open = gap_a[i, j] == match[i, j - 1] - gap_open
            j -= 1
            state = _FROM_MATCH if came_from_open else _FROM_GAP_A
        else:  # _FROM_GAP_B
            out_a.append(res_a[i - 1])
            out_b.append(alphabet.GAP)
            came_from_open = gap_b[i, j] == match[i - 1, j] - gap_open
            i -= 1
            state = _FROM_MATCH if came_from_open else _FROM_GAP_B
    return "".join(reversed(out_a)), "".join(reversed(out_b))
