"""Tests for the molecular graph model."""

import networkx as nx
import pytest

from repro.chem.mol import Atom, Bond, Molecule
from repro.chem import generate_library, parse_smiles
from repro.errors import ChemError


def _ethanol():
    mol = Molecule("ethanol")
    c1 = mol.add_atom(Atom("C"))
    c2 = mol.add_atom(Atom("C"))
    o = mol.add_atom(Atom("O"))
    mol.add_bond(c1, c2)
    mol.add_bond(c2, o)
    return mol.freeze()


class TestAtomsAndBonds:
    def test_unsupported_element(self):
        with pytest.raises(ChemError):
            Atom("Xx")

    def test_aromatic_halogen_rejected(self):
        with pytest.raises(ChemError):
            Atom("F", aromatic=True)

    def test_self_bond_rejected(self):
        with pytest.raises(ChemError):
            Bond(1, 1)

    def test_bad_bond_order(self):
        with pytest.raises(ChemError):
            Bond(0, 1, order=4)

    def test_bond_other(self):
        bond = Bond(3, 7)
        assert bond.other(3) == 7
        assert bond.other(7) == 3
        with pytest.raises(ChemError):
            bond.other(5)

    def test_duplicate_bond_rejected(self):
        mol = Molecule()
        a = mol.add_atom(Atom("C"))
        b = mol.add_atom(Atom("C"))
        mol.add_bond(a, b)
        with pytest.raises(ChemError, match="duplicate"):
            mol.add_bond(b, a)

    def test_bond_to_missing_atom(self):
        mol = Molecule()
        mol.add_atom(Atom("C"))
        with pytest.raises(ChemError, match="missing atom"):
            mol.add_bond(0, 5)


class TestFreeze:
    def test_frozen_molecule_rejects_edits(self):
        mol = _ethanol()
        with pytest.raises(ChemError, match="frozen"):
            mol.add_atom(Atom("C"))
        with pytest.raises(ChemError, match="frozen"):
            mol.add_bond(0, 2)

    def test_empty_molecule_rejected(self):
        with pytest.raises(ChemError, match="empty"):
            Molecule().freeze()

    def test_freeze_checks_valence(self):
        mol = Molecule()
        o = mol.add_atom(Atom("O"))
        carbons = [mol.add_atom(Atom("C")) for _ in range(3)]
        for c in carbons:
            mol.add_bond(o, c)
        with pytest.raises(ChemError, match="valence"):
            mol.freeze()


class TestImplicitHydrogens:
    def test_methane_carbon(self):
        mol = Molecule()
        mol.add_atom(Atom("C"))
        assert mol.freeze().implicit_hydrogens(0) == 4

    def test_ethanol(self):
        mol = _ethanol()
        assert mol.implicit_hydrogens(0) == 3
        assert mol.implicit_hydrogens(1) == 2
        assert mol.implicit_hydrogens(2) == 1

    def test_explicit_hydrogens_win(self):
        mol = Molecule()
        mol.add_atom(Atom("N", explicit_hydrogens=0))
        assert mol.freeze().implicit_hydrogens(0) == 0

    def test_charge_shifts_valence(self):
        mol = Molecule()
        mol.add_atom(Atom("N", charge=1))
        assert mol.freeze().implicit_hydrogens(0) == 4

    def test_hypervalent_sulfur(self):
        sulfone = parse_smiles("CS(=O)(=O)C")
        s_index = next(
            a.index for a in sulfone.atoms if a.element == "S"
        )
        assert sulfone.implicit_hydrogens(s_index) == 0

    def test_aromatic_nitrogen_with_substituent(self):
        caffeine = parse_smiles("Cn1cnc2c1c(=O)n(C)c(=O)n2C")
        for atom in caffeine.atoms:
            if atom.element == "N":
                assert caffeine.implicit_hydrogens(atom.index) == 0


class TestDerived:
    def test_molecular_weight_water(self):
        water = parse_smiles("O")
        assert water.molecular_weight == pytest.approx(18.015, abs=0.01)

    def test_benzene_rings(self):
        benzene = parse_smiles("c1ccccc1")
        assert len(benzene.rings()) == 1
        assert set().union(*benzene.rings()) == set(range(6))
        assert len(benzene.ring_bonds()) == 6

    def test_naphthalene_fused_rings(self):
        naph = parse_smiles("c1ccc2ccccc2c1")
        assert len(naph.rings()) == 2
        assert len(set().union(*naph.rings())) == 10
        assert len(naph.ring_bonds()) == 11

    def test_chain_has_no_rings(self):
        hexane = parse_smiles("CCCCCC")
        assert hexane.rings() == []
        assert hexane.ring_bonds() == set()

    def test_neighbors_and_degree(self):
        mol = _ethanol()
        assert mol.neighbors(1) == [0, 2]
        assert mol.degree(1) == 2
        assert mol.degree(2) == 1

    def test_bond_between(self):
        bonds = _ethanol().match_profile().bonds
        assert bonds[0][1] is bonds[1][0]
        assert bonds[0].get(2) is None

    def test_heavy_atom_count(self):
        assert _ethanol().heavy_atom_count == 3


#: Fused, bridged, spiro and caged ring systems the generator never
#: assembles, plus a chain and a two-fragment salt.
RING_SYSTEMS = {
    "anthracene": "c1ccc2cc3ccccc3cc2c1",
    "norbornane": "C1CC2CCC1C2",
    "spiro[4.5]decane": "C1CCC2(C1)CCCCC2",
    "cubane": "C12C3C4C1C5C2C3C45",
    "adamantane": "C1C2CC3CC1CC(C2)C3",
    "biphenyl": "c1ccccc1-c1ccccc1",
    "salt": "[NH4+].[Cl-]",
}


class TestRingsAgainstNetworkx:
    """``rings()`` is *a* cycle basis, not networkx's: what callers
    read — ring count, ring-atom union, ring bonds — must be what
    ``nx.cycle_basis`` / ``nx.bridges`` say."""

    def check(self, mol):
        graph = nx.Graph()
        graph.add_nodes_from(range(len(mol.atoms)))
        graph.add_edges_from(bond.key for bond in mol.bonds)
        basis = nx.cycle_basis(graph)
        assert len(mol.rings()) == len(basis)
        assert set().union(*mol.rings()) == set().union(*basis)
        bridges = set(nx.bridges(graph))
        assert mol.ring_bonds() == {
            bond.key for bond in mol.bonds
            if bond.key not in bridges and bond.key[::-1] not in bridges}
        for ring in mol.rings():
            assert ring == sorted(ring)
            assert nx.cycle_basis(graph.subgraph(ring))  # a real cycle

    @pytest.mark.parametrize("name", sorted(RING_SYSTEMS))
    def test_hand_written_ring_systems(self, name):
        self.check(parse_smiles(RING_SYSTEMS[name]))

    def test_generated_library(self):
        for ligand in generate_library(200, seed=7):
            self.check(ligand.molecule)
