"""Cheminformatics substrate: molecules, descriptors, fingerprints.

Implements the ligand side of DrugTree: a mini SMILES toolkit, the
descriptors ligand databases expose, similarity fingerprints, binding
affinity records, and the random library generator used in place of
proprietary screening collections.
"""

from repro.chem.affinity import ActivityType, BindingRecord, p_affinity
from repro.chem.descriptors import (
    DescriptorSet,
    compute_descriptors,
    estimate_logp,
    hydrogen_bond_acceptors,
    hydrogen_bond_donors,
    rotatable_bonds,
    topological_polar_surface_area,
)
from repro.chem.fingerprint import Fingerprint, circular_fingerprint, tanimoto
from repro.chem.generator import (
    Ligand,
    Recipe,
    build_ligand,
    generate_library,
    generate_ligand,
    mutate_recipe,
    random_recipe,
)
from repro.chem.mol import Atom, Bond, Molecule
from repro.chem.search import FingerprintIndex
from repro.chem.smiles import parse_smiles
from repro.chem.substructure import SubstructurePattern, filter_library

__all__ = [
    "ActivityType",
    "Atom",
    "BindingRecord",
    "Bond",
    "DescriptorSet",
    "Fingerprint",
    "FingerprintIndex",
    "Ligand",
    "Molecule",
    "Recipe",
    "SubstructurePattern",
    "build_ligand",
    "circular_fingerprint",
    "compute_descriptors",
    "estimate_logp",
    "generate_library",
    "filter_library",
    "generate_ligand",
    "hydrogen_bond_acceptors",
    "hydrogen_bond_donors",
    "mutate_recipe",
    "p_affinity",
    "parse_smiles",
    "random_recipe",
    "rotatable_bonds",
    "tanimoto",
    "topological_polar_surface_area",
]
