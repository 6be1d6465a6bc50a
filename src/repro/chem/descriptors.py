"""Molecular descriptors for drug-likeness filtering and query predicates.

The descriptor set mirrors what a ligand-activity database exposes per
compound: molecular weight, a coarse logP estimate, polar surface area,
hydrogen-bond donor/acceptor counts, rotatable bonds, ring count, and the
Lipinski rule-of-five verdict. The logP and TPSA models are deliberately
simple fragment-contribution tables (Wildman–Crippen- and Ertl-inspired);
they produce realistic *distributions* and orderings, which is what the
query benchmarks need, not publication-grade predictions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chem.mol import Molecule

#: Coarse per-atom logP contributions (hydrophobicity up, polarity down).
_LOGP_ATOM = {
    "C": 0.14, "B": 0.05, "N": -0.60, "O": -0.45, "P": -0.40,
    "S": 0.25, "F": 0.22, "Cl": 0.65, "Br": 0.85, "I": 1.05, "H": 0.0,
}
_LOGP_AROMATIC_CARBON = 0.30
_LOGP_HYDROGEN_ON_POLAR = -0.30


def estimate_logp(mol: Molecule) -> float:
    """Crude octanol/water partition estimate by atom contributions."""
    total = 0.0
    for atom in mol.atoms:
        if atom.element == "C" and atom.aromatic:
            total += _LOGP_AROMATIC_CARBON
        else:
            total += _LOGP_ATOM[atom.element]
        if atom.element in ("N", "O"):
            total += _LOGP_HYDROGEN_ON_POLAR * mol.implicit_hydrogens(
                atom.index
            )
    return round(total, 3)


def hydrogen_bond_donors(mol: Molecule) -> int:
    """Count of N–H and O–H groups (each group counted once)."""
    return sum(
        1
        for atom in mol.atoms
        if atom.element in ("N", "O")
        and mol.implicit_hydrogens(atom.index) > 0
    )


def hydrogen_bond_acceptors(mol: Molecule) -> int:
    """Count of nitrogen and oxygen atoms (Lipinski convention)."""
    return sum(1 for atom in mol.atoms if atom.element in ("N", "O"))


def rotatable_bonds(mol: Molecule) -> int:
    """Single, non-ring bonds between two non-terminal heavy atoms."""
    ring_bonds = mol.ring_bonds()
    count = 0
    for bond in mol.bonds:
        if bond.order != 1 or bond.aromatic or bond.key in ring_bonds:
            continue
        if mol.degree(bond.first) < 2 or mol.degree(bond.second) < 2:
            continue
        if (mol.atoms[bond.first].element == "H"
                or mol.atoms[bond.second].element == "H"):
            continue
        count += 1
    return count


def topological_polar_surface_area(mol: Molecule) -> float:
    """Ertl-style TPSA from per-atom N/O/S environment contributions."""
    total = 0.0
    for atom in mol.atoms:
        element = atom.element
        if element not in ("N", "O", "S"):
            continue
        hydrogens = mol.implicit_hydrogens(atom.index)
        double_bonds = sum(
            1 for bond in mol.bonds_of(atom.index) if bond.order == 2
        )
        if element == "O":
            if atom.aromatic:
                total += 13.14
            elif double_bonds:
                total += 17.07
            elif hydrogens:
                total += 20.23
            else:
                total += 9.23
        elif element == "N":
            if atom.aromatic:
                total += 4.93 + (10.0 if hydrogens else 0.0)
            elif hydrogens >= 2:
                total += 26.02
            elif hydrogens == 1:
                total += 12.03
            elif double_bonds:
                total += 12.36
            else:
                total += 3.24
        else:  # sulfur
            total += 25.30 if hydrogens else (28.24 if double_bonds
                                              else 0.0)
    return round(total, 2)


@dataclass(frozen=True)
class DescriptorSet:
    """All per-compound descriptors, as stored in the ligand tables."""

    molecular_weight: float
    logp: float
    tpsa: float
    hbd: int
    hba: int
    rotatable_bonds: int
    ring_count: int
    heavy_atoms: int
    aromatic_atoms: int

    @property
    def lipinski_violations(self) -> int:
        """Number of rule-of-five violations (MW/logP/HBD/HBA)."""
        violations = 0
        if self.molecular_weight > 500:
            violations += 1
        if self.logp > 5:
            violations += 1
        if self.hbd > 5:
            violations += 1
        if self.hba > 10:
            violations += 1
        return violations

    @property
    def is_drug_like(self) -> bool:
        """Lipinski's rule of five: at most one violation."""
        return self.lipinski_violations <= 1


def compute_descriptors(mol: Molecule) -> DescriptorSet:
    """Compute the full descriptor set for one molecule."""
    return DescriptorSet(
        molecular_weight=round(mol.molecular_weight, 3),
        logp=estimate_logp(mol),
        tpsa=topological_polar_surface_area(mol),
        hbd=hydrogen_bond_donors(mol),
        hba=hydrogen_bond_acceptors(mol),
        rotatable_bonds=rotatable_bonds(mol),
        ring_count=len(mol.rings()),
        heavy_atoms=mol.heavy_atom_count,
        aromatic_atoms=sum(1 for atom in mol.atoms if atom.aromatic),
    )
