"""Protein sequences and FASTA input/output.

:class:`ProteinSequence` is an immutable value object: two sequences with the
same identifier and residues compare equal and hash identically, which lets
higher layers use them as dictionary keys and set members.
"""

from __future__ import annotations

import io
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from repro.bio import alphabet
from repro.errors import SequenceError


@dataclass(frozen=True, slots=True)
class ProteinSequence:
    """An identified protein sequence.

    Parameters
    ----------
    seq_id:
        Stable identifier (e.g. an accession like ``"DHFR_HUMAN"``).
    residues:
        One-letter residue codes; validated and upper-cased on creation.
    description:
        Optional free-text description carried from FASTA headers.
    """

    seq_id: str
    residues: str
    description: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.seq_id:
            raise SequenceError("sequence id must be non-empty")
        object.__setattr__(self, "residues", alphabet.validate(self.residues))

    def __len__(self) -> int:
        return len(self.residues)

    def __iter__(self) -> Iterator[str]:
        return iter(self.residues)

    def __getitem__(self, index: int | slice) -> str:
        return self.residues[index]

    @property
    def canonical(self) -> str:
        """Residues with ambiguity codes resolved."""
        return alphabet.canonicalize(self.residues)

    def identity(self, other: "ProteinSequence") -> float:
        """Fraction of matching positions against *other*.

        Both sequences must have equal length (use alignment first
        otherwise); raises :class:`~repro.errors.SequenceError` if not.
        """
        if len(self) != len(other):
            raise SequenceError(
                "identity requires equal-length sequences; "
                f"got {len(self)} and {len(other)}"
            )
        matches = sum(a == b for a, b in zip(self.residues, other.residues))
        return matches / len(self)

    def to_fasta(self, width: int = 60) -> str:
        """Render this sequence as a FASTA record."""
        header = f">{self.seq_id}"
        if self.description:
            header = f"{header} {self.description}"
        body = "\n".join(
            self.residues[i:i + width]
            for i in range(0, len(self.residues), width)
        )
        return f"{header}\n{body}\n"


def parse_fasta(text: str) -> list[ProteinSequence]:
    """Parse FASTA *text* into a list of sequences.

    Handles multi-line records, blank lines, and ``;`` comment lines.
    Raises :class:`~repro.errors.SequenceError` on structural problems
    (residue data before any header, a header with no residues, or a
    duplicated identifier).
    """
    sequences: list[ProteinSequence] = []
    seen_ids: set[str] = set()
    header: str | None = None
    chunks: list[str] = []

    def flush() -> None:
        if header is None:
            return
        seq_id, _, description = header.partition(" ")
        residues = "".join(chunks)
        if not residues:
            raise SequenceError(f"FASTA record {seq_id!r} has no residues")
        if seq_id in seen_ids:
            raise SequenceError(f"duplicate FASTA id {seq_id!r}")
        seen_ids.add(seq_id)
        sequences.append(ProteinSequence(seq_id, residues, description))

    for raw_line in io.StringIO(text):
        line = raw_line.strip()
        if not line or line.startswith(";"):
            continue
        if line.startswith(">"):
            flush()
            header = line[1:].strip()
            if not header:
                raise SequenceError("FASTA header with no identifier")
            chunks = []
        else:
            if header is None:
                raise SequenceError("residue data before any FASTA header")
            chunks.append(line)
    flush()
    return sequences


def write_fasta(sequences: Iterable[ProteinSequence], width: int = 60) -> str:
    """Render *sequences* as FASTA text."""
    return "".join(seq.to_fasta(width=width) for seq in sequences)
