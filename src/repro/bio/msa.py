"""Progressive multiple sequence alignment.

The classic ClustalW-style pipeline: pairwise distances → UPGMA guide
tree → progressive profile alignment along the guide tree. Profiles are
aligned with a profile-sum-of-pairs Needleman–Wunsch, which is accurate
enough for the families the workload generator produces and keeps the
code free of external aligner dependencies.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.bio import alphabet
from repro.bio.distance import distance_matrix
from repro.bio.matrices import BLOSUM62, SubstitutionMatrix
from repro.bio.seq import ProteinSequence
from repro.bio.tree import PhyloNode, PhyloTree
from repro.bio.upgma import upgma
from repro.errors import AlignmentError


@dataclass(frozen=True)
class MultipleAlignment:
    """An aligned set of sequences.

    ``rows[i]`` is the gapped text of the sequence named ``names[i]``;
    all rows share the same width.
    """

    names: tuple[str, ...]
    rows: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.names) != len(self.rows):
            raise AlignmentError("names/rows length mismatch")
        if not self.rows:
            raise AlignmentError("empty alignment")
        widths = {len(row) for row in self.rows}
        if len(widths) != 1:
            raise AlignmentError("alignment rows have differing widths")

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def width(self) -> int:
        return len(self.rows[0])

    def row(self, name: str) -> str:
        try:
            return self.rows[self.names.index(name)]
        except ValueError:
            raise AlignmentError(f"no aligned row for {name!r}") from None

    def column(self, index: int) -> str:
        """Residues (and gaps) of one alignment column."""
        return "".join(row[index] for row in self.rows)


class _Profile:
    """A gapped alignment block with per-column residue frequencies."""

    def __init__(self, names: list[str], rows: list[str]) -> None:
        self.names = names
        self.rows = rows
        self.width = len(rows[0]) if rows else 0

    def column_counts(self, matrix_order: str) -> np.ndarray:
        """(width, |alphabet|+1) counts; last slot counts gaps."""
        counts = np.zeros((self.width, len(matrix_order) + 1),
                          dtype=np.float64)
        index = {aa: k for k, aa in enumerate(matrix_order)}
        gap_slot = len(matrix_order)
        for row in self.rows:
            canonical = alphabet.canonicalize(row.replace(alphabet.GAP, "*"))
            for pos, char in enumerate(canonical):
                if char == "*":
                    counts[pos, gap_slot] += 1
                else:
                    counts[pos, index[char]] += 1
        return counts


def _profile_scores(profile_a: _Profile, profile_b: _Profile,
                    matrix: SubstitutionMatrix,
                    gap_residue_score: float) -> np.ndarray:
    """Sum-of-pairs expected score for every column pair."""
    order = alphabet.AMINO_ACIDS
    table = matrix.as_array(order).astype(np.float64)
    counts_a = profile_a.column_counts(order)
    counts_b = profile_b.column_counts(order)
    res_a, gaps_a = counts_a[:, :-1], counts_a[:, -1]
    res_b, gaps_b = counts_b[:, :-1], counts_b[:, -1]
    # Residue-vs-residue expectation plus residue-vs-gap penalties.
    scores = res_a @ table @ res_b.T
    total_res_a = res_a.sum(axis=1)
    total_res_b = res_b.sum(axis=1)
    scores += gap_residue_score * (
        np.outer(gaps_a, total_res_b) + np.outer(total_res_a, gaps_b)
    )
    pairs = len(profile_a.rows) * len(profile_b.rows)
    return scores / pairs


def _align_profiles(profile_a: _Profile, profile_b: _Profile,
                    matrix: SubstitutionMatrix,
                    gap_open: float, gap_extend: float) -> _Profile:
    """Needleman–Wunsch over profile columns with affine gaps."""
    pair = _profile_scores(profile_a, profile_b, matrix,
                           gap_residue_score=-gap_extend)
    n, m = profile_a.width, profile_b.width
    neg_inf = -1e18
    match = np.full((n + 1, m + 1), neg_inf)
    gap_a = np.full((n + 1, m + 1), neg_inf)
    gap_b = np.full((n + 1, m + 1), neg_inf)
    match[0, 0] = 0.0
    for j in range(1, m + 1):
        gap_a[0, j] = -(gap_open + (j - 1) * gap_extend)
    for i in range(1, n + 1):
        gap_b[i, 0] = -(gap_open + (i - 1) * gap_extend)

    for i in range(1, n + 1):
        prev_m, prev_a, prev_b = match[i - 1], gap_a[i - 1], gap_b[i - 1]
        best_prev = np.maximum(np.maximum(prev_m, prev_a), prev_b)
        gap_b[i] = np.maximum(
            np.maximum(prev_m, prev_a) - gap_open, prev_b - gap_extend
        )
        gap_b[i, 0] = -(gap_open + (i - 1) * gap_extend)
        row_m, row_a = match[i], gap_a[i]
        row_pair = pair[i - 1]
        for j in range(1, m + 1):
            row_m[j] = best_prev[j - 1] + row_pair[j - 1]
            row_a[j] = max(
                max(row_m[j - 1], gap_b[i, j - 1]) - gap_open,
                row_a[j - 1] - gap_extend,
            )

    # Traceback by score recomputation.
    out_a_cols: list[int] = []  # -1 marks a gap column
    out_b_cols: list[int] = []
    i, j = n, m
    scores = {"m": match, "a": gap_a, "b": gap_b}
    state = max(scores, key=lambda key: scores[key][n, m])
    while i > 0 or j > 0:
        if state == "m" and i > 0 and j > 0:
            out_a_cols.append(i - 1)
            out_b_cols.append(j - 1)
            prev_val = match[i, j] - pair[i - 1, j - 1]
            i -= 1
            j -= 1
            state = _pick_state(match[i, j], gap_a[i, j], gap_b[i, j],
                                prev_val)
        elif state == "a" and j > 0:
            out_a_cols.append(-1)
            out_b_cols.append(j - 1)
            value = gap_a[i, j]
            j -= 1
            if abs(gap_a[i, j] - gap_extend - value) < 1e-9:
                state = "a"
            elif abs(match[i, j] - gap_open - value) < 1e-9:
                state = "m"
            else:
                state = "b"
        elif state == "b" and i > 0:
            out_a_cols.append(i - 1)
            out_b_cols.append(-1)
            value = gap_b[i, j]
            i -= 1
            if abs(gap_b[i, j] - gap_extend - value) < 1e-9:
                state = "b"
            elif abs(match[i, j] - gap_open - value) < 1e-9:
                state = "m"
            else:
                state = "a"
        elif j > 0:
            state = "a"
        else:
            state = "b"

    out_a_cols.reverse()
    out_b_cols.reverse()

    def expand(rows: list[str], cols: list[int]) -> list[str]:
        return [
            "".join(row[c] if c >= 0 else alphabet.GAP for c in cols)
            for row in rows
        ]

    return _Profile(
        profile_a.names + profile_b.names,
        expand(profile_a.rows, out_a_cols) + expand(profile_b.rows,
                                                    out_b_cols),
    )


def _pick_state(val_m: float, val_a: float, val_b: float,
                target: float) -> str:
    for state, value in (("m", val_m), ("a", val_a), ("b", val_b)):
        if abs(value - target) < 1e-9:
            return state
    # Floating-point drift: fall back to the best-scoring state.
    best = max((val_m, "m"), (val_a, "a"), (val_b, "b"))
    return best[1]


def progressive_align(sequences: Sequence[ProteinSequence],
                      matrix: SubstitutionMatrix = BLOSUM62,
                      gap_open: float = 11.0, gap_extend: float = 1.0,
                      guide_tree: PhyloTree | None = None,
                      ) -> MultipleAlignment:
    """Progressively align *sequences* along a UPGMA guide tree.

    A *guide_tree* whose leaf names match the sequence ids may be passed
    to skip the distance-matrix step (used when the caller already built
    the phylogeny).
    """
    if len(sequences) == 0:
        raise AlignmentError("no sequences to align")
    by_id = {seq.seq_id: seq for seq in sequences}
    if len(by_id) != len(sequences):
        raise AlignmentError("duplicate sequence ids")
    if len(sequences) == 1:
        only = sequences[0]
        return MultipleAlignment((only.seq_id,), (only.residues,))

    if guide_tree is None:
        guide_tree = upgma(distance_matrix(sequences, correction="p",
                                           matrix=matrix))
    else:
        tree_names = set(guide_tree.leaf_names())
        if tree_names != set(by_id):
            raise AlignmentError(
                "guide tree leaves do not match sequence ids"
            )

    def align_node(node: PhyloNode) -> _Profile:
        if node.is_leaf:
            seq = by_id[node.name]
            return _Profile([seq.seq_id], [seq.residues])
        profiles = [align_node(child) for child in node.children]
        merged = profiles[0]
        for nxt in profiles[1:]:
            merged = _align_profiles(merged, nxt, matrix,
                                     gap_open, gap_extend)
        return merged

    profile = align_node(guide_tree.root)
    # Restore caller order.
    order = {seq.seq_id: pos for pos, seq in enumerate(sequences)}
    paired = sorted(zip(profile.names, profile.rows),
                    key=lambda item: order[item[0]])
    names = tuple(name for name, _ in paired)
    rows = tuple(row for _, row in paired)
    return MultipleAlignment(names, rows)
