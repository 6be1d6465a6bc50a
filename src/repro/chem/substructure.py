"""Substructure matching: "which molecules contain this fragment?"

The classic chemical-database query, implemented the classic way:

1. a cheap **count screen** discards molecules that cannot possibly
   contain the fragment (fewer atoms of some element, fewer rings,
   fewer bonds than the fragment requires);
2. survivors are checked exactly for a subgraph **monomorphism**
   (pattern bonds must exist in the target; extra target bonds are
   allowed), with element and aromaticity matched per atom and bond
   order per bond: a depth-first search that places the fragment's
   atoms in a connected order, each on a neighbour of an atom already
   placed (the answers of VF2 with those match functions —
   property-tested against networkx's — without its per-state cost).

The screen is sound (never discards a true match — property-tested) but
not complete; the search settles the survivors.
"""

from __future__ import annotations

from collections import Counter

from repro.chem.mol import Atom, Bond, Molecule
from repro.chem.smiles import parse_smiles
from repro.errors import ChemError


def _bonds_match(target: Bond | None, pattern: Bond) -> bool:
    if target is None:
        return False
    if pattern.aromatic or target.aromatic:
        return pattern.aromatic == target.aromatic
    return pattern.order == target.order


def _search_order(fragment: Molecule) -> list[tuple[Atom, list]]:
    """The fragment's atoms breadth-first, component by component, each
    with its bonds back to atoms placed before it, as ``(their place in
    the order, bond)`` pairs."""
    place: dict[int, int] = {}
    for root in range(len(fragment.atoms)):
        queue = [root]
        for index in queue:  # grows as it is walked
            if index not in place:
                place[index] = len(place)
                queue.extend(fragment.neighbors(index))
    return [(fragment.atoms[index],
             [(place[bond.other(index)], bond)
              for bond in fragment.bonds_of(index)
              if place[bond.other(index)] < place[index]])
            for index in place]


class SubstructurePattern:
    """A parsed, screen-profiled fragment ready for repeated matching."""

    def __init__(self, smiles: str) -> None:
        if not smiles:
            raise ChemError("substructure pattern needs SMILES text")
        self.smiles = smiles
        self.fragment = parse_smiles(smiles)
        self._order = _search_order(self.fragment)
        self.element_counts = Counter(
            atom.element for atom in self.fragment.atoms
        )
        self.bond_count = len(self.fragment.bonds)
        self.ring_count = len(self.fragment.rings())
        self.aromatic_atoms = sum(
            1 for atom in self.fragment.atoms if atom.aromatic
        )

    # -- stage 1: the count screen ----------------------------------------

    def screen(self, mol: Molecule) -> bool:
        """Can *mol* possibly contain the fragment? (Sound, incomplete.)"""
        if len(mol.bonds) < self.bond_count:
            return False
        if len(mol.rings()) < self.ring_count:
            return False
        if sum(1 for a in mol.atoms if a.aromatic) < self.aromatic_atoms:
            return False
        counts = Counter(atom.element for atom in mol.atoms)
        return all(
            counts.get(element, 0) >= needed
            for element, needed in self.element_counts.items()
        )

    # -- stage 2: exact matching ----------------------------------------------

    def _mappings(self, mol: Molecule, placed: list[int]):
        """Every way to place the rest of the fragment on atoms of *mol*
        not in *placed* (the target atom of each fragment atom placed so
        far, in search order); yields once per complete mapping."""
        if len(placed) == len(self._order):
            yield
            return
        wanted, back = self._order[len(placed)]
        for candidate in (mol.neighbors(placed[back[0][0]]) if back
                          else range(len(mol.atoms))):
            atom = mol.atoms[candidate]
            if (atom.element == wanted.element
                    and atom.aromatic == wanted.aromatic
                    and candidate not in placed
                    and all(_bonds_match(
                        mol.bond_between(placed[earlier], candidate), bond)
                        for earlier, bond in back)):
                placed.append(candidate)
                yield from self._mappings(mol, placed)
                placed.pop()

    def matches(self, mol: Molecule, screen: bool = True) -> bool:
        """True if *mol* contains the fragment (screen, then search;
        ``screen=False`` is for a caller that has screened already, or
        measures what the screen saves)."""
        if screen and not self.screen(mol):
            return False
        return any(True for _ in self._mappings(mol, []))

    def __repr__(self) -> str:
        return f"SubstructurePattern({self.smiles!r})"


def filter_library(patterns: SubstructurePattern,
                   molecules: dict[str, Molecule]) -> tuple[frozenset[str],
                                                            int]:
    """Match a pattern over a keyed library.

    Returns (matching keys, how many survived the screen) — the second
    number is what the screening experiment reports.
    """
    screened = {
        key: mol for key, mol in molecules.items()
        if patterns.screen(mol)
    }
    matches = frozenset(
        key for key, mol in screened.items()
        if patterns.matches(mol, screen=False)
    )
    return matches, len(screened)
