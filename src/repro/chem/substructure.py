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
   placed, counting mappings up to a limit (``matches`` stops at one).
   Its counts are VF2's with those match functions (property-tested
   against networkx's) without its per-state cost.

The screen is sound (never discards a true match — property-tested) but
not complete; the search settles the survivors. Both read the target's
:class:`~repro.chem.mol.MatchProfile`, built on its first search.
"""

from __future__ import annotations

from repro.chem.mol import Bond, Molecule
from repro.chem.smiles import parse_smiles
from repro.errors import ChemError


def _bonds_match(target: Bond | None, pattern: Bond) -> bool:
    if target is None:
        return False
    if pattern.aromatic or target.aromatic:
        return pattern.aromatic == target.aromatic
    return pattern.order == target.order


def _search_order(fragment: Molecule) -> list[tuple]:
    """The fragment's atoms breadth-first, component by component (from
    a heteroatom if it has one: targets hold few of those), each as its
    ``(element, aromatic)`` kind with its bonds back to atoms placed
    before it, as ``(their place in the order, bond)`` pairs."""
    profile = fragment.match_profile()
    kinds, bonds = profile.kinds, profile.bonds
    place: dict[int, int] = {}
    for root in sorted(range(len(kinds)), key=lambda i: kinds[i][0] == "C"):
        queue = [root]
        for index in queue:  # grows as it is walked
            if index not in place:
                place[index] = len(place)
                queue.extend(bonds[index])
    return [(kinds[index], [(place[other], bond)
                            for other, bond in bonds[index].items()
                            if place[other] < place[index]])
            for index in place]


class SubstructurePattern:
    """A parsed, screen-profiled fragment ready for repeated matching."""

    def __init__(self, smiles: str) -> None:
        if not smiles:
            raise ChemError("substructure pattern needs SMILES text")
        self.smiles = smiles
        self.fragment = parse_smiles(smiles)
        self.profile = self.fragment.match_profile()
        self._order = _search_order(self.fragment)

    # -- stage 1: the count screen ----------------------------------------

    def screen(self, mol: Molecule) -> bool:
        """Can *mol* possibly contain the fragment? (Sound, incomplete.)"""
        have, need = mol.match_profile(), self.profile
        return (have.bond_count >= need.bond_count
                and have.ring_count >= need.ring_count
                and have.aromatic_atoms >= need.aromatic_atoms
                and all(have.elements[element] >= count
                        for element, count in need.elements.items()))

    # -- stage 2: exact matching ----------------------------------------------

    def count_mappings(self, mol: Molecule, limit: int | None = None) -> int:
        """Ways the fragment maps onto *mol*, counted up to *limit*."""
        profile = mol.match_profile()
        kinds, bonds = profile.kinds, profile.bonds
        order = self._order
        placed: list[int] = []  # the target atom of each placed atom
        found = 0

        def place(depth: int) -> bool:  # True once *limit* are found
            nonlocal found
            if depth == len(order):
                found += 1
                return found == limit
            wanted, back = order[depth]
            for candidate in (bonds[placed[back[0][0]]] if back
                              else range(len(kinds))):
                if (kinds[candidate] == wanted
                        and candidate not in placed
                        and all(_bonds_match(
                            bonds[placed[earlier]].get(candidate), bond)
                            for earlier, bond in back)):
                    placed.append(candidate)
                    if place(depth + 1):
                        return True
                    placed.pop()
            return False

        place(0)
        return found

    def matches(self, mol: Molecule, screen: bool = True) -> bool:
        """True if *mol* contains the fragment (screen, then search;
        ``screen=False`` is for a caller that has screened already, or
        measures what the screen saves)."""
        if screen and not self.screen(mol):
            return False
        return self.count_mappings(mol, limit=1) == 1

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
