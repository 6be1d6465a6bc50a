"""Amino-acid alphabet and residue validation.

The twenty standard amino acids, ordered by their one-letter codes. The
ambiguity codes ``B`` (Asx), ``Z`` (Glx) and ``X`` (unknown) are accepted on
input but are not part of the canonical alphabet; distance and alignment
routines treat them through :func:`canonicalize`.
"""

from __future__ import annotations

from repro.errors import SequenceError

#: The twenty standard amino acids, one-letter codes, alphabetical order.
AMINO_ACIDS: str = "ACDEFGHIKLMNPQRSTVWY"

#: Ambiguity codes accepted on input.
AMBIGUOUS: str = "BZX"

#: The gap character used by alignments.
GAP: str = "-"

#: Index of each canonical residue, for matrix lookups.
AA_INDEX: dict[str, int] = {aa: i for i, aa in enumerate(AMINO_ACIDS)}

#: Three-letter names, for pretty-printing and PDB-shaped records.
THREE_LETTER: dict[str, str] = {
    "A": "ALA", "C": "CYS", "D": "ASP", "E": "GLU", "F": "PHE",
    "G": "GLY", "H": "HIS", "I": "ILE", "K": "LYS", "L": "LEU",
    "M": "MET", "N": "ASN", "P": "PRO", "Q": "GLN", "R": "ARG",
    "S": "SER", "T": "THR", "V": "VAL", "W": "TRP", "Y": "TYR",
}

_VALID = set(AMINO_ACIDS) | set(AMBIGUOUS)

#: Ambiguity resolution used by :func:`canonicalize`. ``B`` resolves to
#: aspartate, ``Z`` to glutamate and ``X`` to alanine: the most common
#: member of each ambiguity class, which keeps scoring deterministic.
_RESOLVE = {"B": "D", "Z": "E", "X": "A"}


def validate(residues: str) -> str:
    """Validate *residues*, returning the upper-cased sequence text.

    Raises :class:`~repro.errors.SequenceError` if the text is empty or
    contains a character outside the accepted alphabet.
    """
    if not residues:
        raise SequenceError("empty sequence")
    upper = residues.upper()
    for pos, char in enumerate(upper):
        if char not in _VALID:
            raise SequenceError(
                f"invalid residue {char!r} at position {pos}"
            )
    return upper


def canonicalize(residues: str) -> str:
    """Map ambiguity codes to canonical residues (B→D, Z→E, X→A)."""
    if not any(char in _RESOLVE for char in residues):
        return residues
    return "".join(_RESOLVE.get(char, char) for char in residues)
