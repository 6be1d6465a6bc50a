"""Protein sequence similarity search (BLAST-lite).

"Which proteins in the tree resemble this new sequence?" is the entry
query of the DrugTree workflow — it decides where a new enzyme hangs.
A full alignment against every database sequence is quadratic and slow;
this module implements the standard two-stage shortcut:

1. a :class:`KmerIndex` finds candidates sharing enough exact k-mers
   with the query (the BLAST word heuristic);
2. candidates are rescored with real Smith–Waterman local alignment and
   ranked by score.

The filter is lossy by design (a sequence with no shared k-mer is never
scored), exactly like the tool it imitates; the tests quantify that the
true best hit survives filtering for related sequences.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

from repro.bio.align import local_align
from repro.bio.matrices import BLOSUM62, SubstitutionMatrix
from repro.bio.seq import ProteinSequence
from repro.errors import SequenceError

DEFAULT_K = 3


@dataclass(frozen=True)
class SearchHit:
    """One scored database match."""

    seq_id: str
    score: int
    identity: float
    shared_kmers: int

    def __lt__(self, other: "SearchHit") -> bool:
        return (self.score, self.seq_id) < (other.score, other.seq_id)


class KmerIndex:
    """Inverted index from k-mer to the sequences containing it."""

    def __init__(self, k: int = DEFAULT_K) -> None:
        if k < 1:
            raise SequenceError("k must be positive")
        self.k = k
        self._postings: dict[str, set[str]] = {}
        self._sequences: dict[str, ProteinSequence] = {}

    def __len__(self) -> int:
        return len(self._sequences)

    def __contains__(self, seq_id: str) -> bool:
        return seq_id in self._sequences

    def add(self, sequence: ProteinSequence) -> None:
        if sequence.seq_id in self._sequences:
            raise SequenceError(
                f"duplicate sequence id {sequence.seq_id!r}"
            )
        self._sequences[sequence.seq_id] = sequence
        for kmer in self._kmers(sequence.canonical):
            self._postings.setdefault(kmer, set()).add(sequence.seq_id)

    def add_many(self, sequences: Sequence[ProteinSequence]) -> None:
        for sequence in sequences:
            self.add(sequence)

    def _kmers(self, text: str) -> set[str]:
        k = self.k
        return {text[i:i + k] for i in range(len(text) - k + 1)}

    def get(self, seq_id: str) -> ProteinSequence | None:
        return self._sequences.get(seq_id)

    # -- search ------------------------------------------------------------

    def candidates(self, query: ProteinSequence,
                   min_shared: int = 2) -> dict[str, int]:
        """Database ids sharing >= *min_shared* k-mers with the query."""
        if min_shared < 1:
            raise SequenceError("min_shared must be positive")
        votes: Counter[str] = Counter()
        for kmer in self._kmers(query.canonical):
            for seq_id in self._postings.get(kmer, ()):
                votes[seq_id] += 1
        return {
            seq_id: shared for seq_id, shared in votes.items()
            if shared >= min_shared
        }

    def search(self, query: ProteinSequence,
               top_k: int = 10,
               min_shared: int = 2,
               matrix: SubstitutionMatrix = BLOSUM62,
               ) -> list[SearchHit]:
        """Two-stage search: k-mer filter, then local-alignment rescore."""
        if top_k < 1:
            raise SequenceError("top_k must be positive")
        shortlist = self.candidates(query, min_shared=min_shared)
        hits: list[SearchHit] = []
        for seq_id, shared in shortlist.items():
            target = self._sequences[seq_id]
            alignment = local_align(query, target, matrix=matrix)
            hits.append(SearchHit(
                seq_id=seq_id,
                score=alignment.score,
                identity=round(alignment.identity, 4),
                shared_kmers=shared,
            ))
        hits.sort(key=lambda hit: (-hit.score, hit.seq_id))
        return hits[:top_k]
