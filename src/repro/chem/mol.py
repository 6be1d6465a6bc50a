"""Molecular graph model: atoms, bonds, rings, implicit hydrogens.

A deliberately small subset of a cheminformatics toolkit — enough to
represent the drug-like ligands the DrugTree overlay stores, compute
descriptors over them, and fingerprint them for similarity search.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from repro.errors import ChemError

#: Average atomic masses of the elements the SMILES subset supports.
ATOMIC_MASS: dict[str, float] = {
    "H": 1.008, "B": 10.81, "C": 12.011, "N": 14.007, "O": 15.999,
    "F": 18.998, "P": 30.974, "S": 32.06, "Cl": 35.45, "Br": 79.904,
    "I": 126.904,
}

#: Default valences used to infer implicit hydrogen counts.
DEFAULT_VALENCE: dict[str, int] = {
    "H": 1, "B": 3, "C": 4, "N": 3, "O": 2, "F": 1, "P": 3, "S": 2,
    "Cl": 1, "Br": 1, "I": 1,
}

#: Elements with more than one allowed valence, smallest first
#: (hypervalent sulfur covers sulfoxides/sulfones, phosphorus covers
#: phosphates).
ALLOWED_VALENCES: dict[str, tuple[int, ...]] = {
    "S": (2, 4, 6),
    "P": (3, 5),
}

#: Elements that the mini SMILES dialect may write in aromatic (lowercase)
#: form.
AROMATIC_ELEMENTS = frozenset({"B", "C", "N", "O", "P", "S"})

#: Bond order used when summing valence over an aromatic bond.
AROMATIC_BOND_ORDER = 1.5


@dataclass
class Atom:
    """One atom of a molecule."""

    element: str
    aromatic: bool = False
    charge: int = 0
    explicit_hydrogens: int | None = None
    index: int = field(default=-1)

    def __post_init__(self) -> None:
        if self.element not in ATOMIC_MASS:
            raise ChemError(f"unsupported element {self.element!r}")
        if self.aromatic and self.element not in AROMATIC_ELEMENTS:
            raise ChemError(f"element {self.element!r} cannot be aromatic")


@dataclass(frozen=True)
class Bond:
    """A bond between two atoms, identified by atom indexes."""

    first: int
    second: int
    order: int = 1
    aromatic: bool = False

    def __post_init__(self) -> None:
        if self.first == self.second:
            raise ChemError("self-bonds are not allowed")
        if self.order not in (1, 2, 3):
            raise ChemError(f"unsupported bond order {self.order}")

    @property
    def key(self) -> tuple[int, int]:
        return (min(self.first, self.second), max(self.first, self.second))

    @property
    def valence_order(self) -> float:
        return AROMATIC_BOND_ORDER if self.aromatic else float(self.order)

    def other(self, index: int) -> int:
        if index == self.first:
            return self.second
        if index == self.second:
            return self.first
        raise ChemError(f"atom {index} is not part of this bond")


@dataclass(frozen=True)
class MatchProfile:
    """What substructure search reads of a frozen molecule, built on its
    first search: screen counts, atom kinds, neighbour -> bond maps."""

    bond_count: int
    ring_count: int
    aromatic_atoms: int
    elements: Counter
    kinds: tuple[tuple[str, bool], ...]
    bonds: tuple[dict[int, Bond], ...]


class Molecule:
    """An immutable-after-construction molecular graph.

    Build with :meth:`add_atom`/:meth:`add_bond` then call :meth:`freeze`
    (the SMILES parser does this); afterwards ring membership, implicit
    hydrogens and derived counts are available and cached.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.atoms: list[Atom] = []
        self.bonds: list[Bond] = []
        self._adjacency: dict[int, list[Bond]] = {}
        self._frozen = False
        self._rings: list[list[int]] | None = None
        self._profile: MatchProfile | None = None

    # -- construction ---------------------------------------------------

    def add_atom(self, atom: Atom) -> int:
        if self._frozen:
            raise ChemError("molecule is frozen")
        atom.index = len(self.atoms)
        self.atoms.append(atom)
        self._adjacency[atom.index] = []
        return atom.index

    def add_bond(self, first: int, second: int, order: int = 1,
                 aromatic: bool = False) -> Bond:
        if self._frozen:
            raise ChemError("molecule is frozen")
        for idx in (first, second):
            if not 0 <= idx < len(self.atoms):
                raise ChemError(f"bond references missing atom {idx}")
        bond = Bond(first, second, order, aromatic)
        if any(existing.key == bond.key for existing in self.bonds):
            raise ChemError(
                f"duplicate bond between atoms {first} and {second}"
            )
        self.bonds.append(bond)
        self._adjacency[first].append(bond)
        self._adjacency[second].append(bond)
        return bond

    def demote_nonring_aromatic_bonds(self) -> None:
        """Turn aromatic bonds outside any ring into single bonds.

        SMILES writes an implicit bond between two aromatic atoms, but a
        bond is only genuinely aromatic when it lies on a ring — the
        biphenyl linkage between two aromatic rings is a rotatable single
        bond. The parser calls this once the whole graph is known.
        """
        if self._frozen:
            raise ChemError("molecule is frozen")
        ring_keys = self.ring_bonds()
        for position, bond in enumerate(self.bonds):
            if not bond.aromatic or bond.key in ring_keys:
                continue
            fresh = Bond(bond.first, bond.second, 1, False)
            self.bonds[position] = fresh
            for endpoint in (bond.first, bond.second):
                adjacency = self._adjacency[endpoint]
                for slot, existing in enumerate(adjacency):
                    if existing is bond:
                        adjacency[slot] = fresh
        self._rings = None

    def freeze(self) -> "Molecule":
        """Validate and finalise the molecule; returns self."""
        if not self.atoms:
            raise ChemError("empty molecule")
        self._frozen = True
        # Implicit-hydrogen computation doubles as a valence check.
        for atom in self.atoms:
            self.implicit_hydrogens(atom.index)
        return self

    # -- graph access ---------------------------------------------------

    def neighbors(self, index: int) -> list[int]:
        return [bond.other(index) for bond in self._adjacency[index]]

    def bonds_of(self, index: int) -> list[Bond]:
        return list(self._adjacency[index])

    def degree(self, index: int) -> int:
        return len(self._adjacency[index])

    # -- derived chemistry ----------------------------------------------

    def implicit_hydrogens(self, index: int) -> int:
        """Hydrogens implied by default valence at atom *index*."""
        atom = self.atoms[index]
        if atom.explicit_hydrogens is not None:
            return atom.explicit_hydrogens
        used = sum(bond.valence_order for bond in self._adjacency[index])
        allowed = ALLOWED_VALENCES.get(
            atom.element, (DEFAULT_VALENCE[atom.element],)
        )
        # Aromatic systems blur bond orders: a pyrrole-type nitrogen or a
        # furan oxygen legitimately "uses" up to one unit beyond its
        # default valence (the lone pair donated to the pi system).
        slack = 1.0 if atom.aromatic else 0.0
        for valence in allowed:
            effective = valence + atom.charge
            if effective + slack >= used - 1e-9:
                return max(0, math.floor(effective - used + 1e-9))
        raise ChemError(
            f"valence of atom {index} ({atom.element}) exceeded: "
            f"{used} bonds for allowed valences {allowed}"
        )

    def rings(self) -> list[list[int]]:
        """A cycle basis of the molecular graph (atom indexes).

        The fundamental cycles of a depth-first forest: one per back
        edge, closed through the tree path between its ends. Callers
        read the ring count and the union of ring atoms, which every
        basis agrees on.
        """
        if self._rings is None:
            parent: dict[int, int] = {}
            depth: dict[int, int] = {}
            rings: list[list[int]] = []
            for root in range(len(self.atoms)):
                if root in parent:
                    continue
                parent[root], depth[root] = root, 0
                stack = [(root, iter(self.neighbors(root)))]
                while stack:
                    atom, pending = stack[-1]
                    for neighbor in pending:
                        if neighbor not in parent:
                            parent[neighbor] = atom
                            depth[neighbor] = depth[atom] + 1
                            stack.append(
                                (neighbor, iter(self.neighbors(neighbor))))
                            break
                        if neighbor != parent[atom] \
                                and depth[neighbor] < depth[atom]:
                            cycle = [atom]
                            while cycle[-1] != neighbor:
                                cycle.append(parent[cycle[-1]])
                            rings.append(sorted(cycle))
                    else:
                        stack.pop()
            self._rings = rings
        return self._rings

    def match_profile(self) -> MatchProfile:
        """Built on first use, not in :meth:`freeze`, and kept."""
        if self._profile is None:
            if not self._frozen:
                raise ChemError("only a frozen molecule has a profile")
            kinds = tuple((atom.element, atom.aromatic) for atom in self.atoms)
            self._profile = MatchProfile(
                len(self.bonds), len(self.rings()),
                sum(aromatic for _, aromatic in kinds),
                Counter(element for element, _ in kinds), kinds,
                tuple({bond.other(index): bond for bond in bonds}
                      for index, bonds in self._adjacency.items()))
        return self._profile

    def ring_bonds(self) -> set[tuple[int, int]]:
        ring_sets = [set(ring) for ring in self.rings()]
        out: set[tuple[int, int]] = set()
        for bond in self.bonds:
            for ring in ring_sets:
                if bond.first in ring and bond.second in ring:
                    # Both endpoints in the same ring and the edge lies on
                    # a cycle (i.e. removing it keeps the graph connected
                    # between its endpoints).
                    out.add(bond.key)
                    break
        return out

    @property
    def heavy_atom_count(self) -> int:
        return sum(1 for atom in self.atoms if atom.element != "H")

    @property
    def molecular_weight(self) -> float:
        total = 0.0
        for atom in self.atoms:
            total += ATOMIC_MASS[atom.element]
            total += ATOMIC_MASS["H"] * self.implicit_hydrogens(atom.index)
        return total

    def __len__(self) -> int:
        return len(self.atoms)

    def __repr__(self) -> str:
        return (f"Molecule({self.name!r}, atoms={len(self.atoms)}, "
                f"bonds={len(self.bonds)})")
