"""Hashed circular fingerprints and molecular similarity.

A Morgan/ECFP-style fingerprint: every atom's environment out to a fixed
radius is hashed into a fixed-width bit vector. Hashing uses a stable
64-bit mix (independent of ``PYTHONHASHSEED``) so fingerprints are
reproducible across processes — which the semantic cache and the
benchmark harness both rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chem.mol import Molecule
from repro.errors import ChemError

DEFAULT_BITS = 1024
DEFAULT_RADIUS = 2

_MASK64 = (1 << 64) - 1


def _mix(*values: int) -> int:
    """Stable 64-bit hash of an integer tuple (splitmix64-style)."""
    state = 0x9E3779B97F4A7C15
    for value in values:
        state = (state ^ (value & _MASK64)) * 0xBF58476D1CE4E5B9 & _MASK64
        state = (state ^ (state >> 27)) * 0x94D049BB133111EB & _MASK64
        state ^= state >> 31
    return state


@dataclass(frozen=True)
class Fingerprint:
    """A fixed-width bit vector stored as a Python int bitmask."""

    bits: int
    n_bits: int

    def __post_init__(self) -> None:
        if self.n_bits < 8:
            raise ChemError("fingerprint width must be at least 8 bits")
        if self.bits < 0 or self.bits >> self.n_bits:
            raise ChemError("fingerprint bits exceed declared width")

    @property
    def popcount(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, index: int) -> bool:
        return bool((self.bits >> index) & 1)


def tanimoto(first: Fingerprint, second: Fingerprint) -> float:
    """Jaccard similarity of the two bit sets; 1.0 for two empty sets."""
    if first.n_bits != second.n_bits:
        raise ChemError("fingerprints have different widths")
    union = (first.bits | second.bits).bit_count()
    if union == 0:
        return 1.0
    intersection = (first.bits & second.bits).bit_count()
    return intersection / union


_ELEMENT_CODE = {
    "H": 1, "B": 5, "C": 6, "N": 7, "O": 8, "F": 9, "P": 15, "S": 16,
    "Cl": 17, "Br": 35, "I": 53,
}


def _initial_invariants(mol: Molecule) -> list[int]:
    invariants = []
    for atom in mol.atoms:
        invariants.append(_mix(
            _ELEMENT_CODE[atom.element],
            mol.degree(atom.index),
            atom.charge + 8,
            int(atom.aromatic),
            mol.implicit_hydrogens(atom.index),
        ))
    return invariants


def circular_fingerprint(mol: Molecule,
                         radius: int = DEFAULT_RADIUS,
                         n_bits: int = DEFAULT_BITS) -> Fingerprint:
    """ECFP-style fingerprint of atom environments up to *radius*.

    Each iteration re-hashes every atom's invariant with its (sorted)
    bonded-neighbour invariants, and every intermediate invariant sets a
    bit. ``radius=2`` therefore corresponds to ECFP4-like environments.
    """
    if radius < 0:
        raise ChemError("radius must be non-negative")
    invariants = _initial_invariants(mol)
    bits = 0
    for invariant in invariants:
        bits |= 1 << (invariant % n_bits)
    for _ in range(radius):
        updated = []
        for atom in mol.atoms:
            neighbour_terms = sorted(
                _mix(
                    int(bond.aromatic) * 4 + bond.order,
                    invariants[bond.other(atom.index)],
                )
                for bond in mol.bonds_of(atom.index)
            )
            fresh = _mix(invariants[atom.index], *neighbour_terms)
            updated.append(fresh)
            bits |= 1 << (fresh % n_bits)
        invariants = updated
    return Fingerprint(bits, n_bits)
