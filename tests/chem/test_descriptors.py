"""Tests for molecular descriptors."""

import pytest

from repro.chem import (
    compute_descriptors,
    estimate_logp,
    hydrogen_bond_acceptors,
    hydrogen_bond_donors,
    parse_smiles,
    rotatable_bonds,
    topological_polar_surface_area,
)


class TestHydrogenBonding:
    def test_ethanol_donor_acceptor(self):
        ethanol = parse_smiles("CCO")
        assert hydrogen_bond_donors(ethanol) == 1
        assert hydrogen_bond_acceptors(ethanol) == 1

    def test_ether_is_acceptor_only(self):
        ether = parse_smiles("COC")
        assert hydrogen_bond_donors(ether) == 0
        assert hydrogen_bond_acceptors(ether) == 1

    def test_primary_amine(self):
        amine = parse_smiles("CN")
        assert hydrogen_bond_donors(amine) == 1
        assert hydrogen_bond_acceptors(amine) == 1

    def test_carboxylic_acid(self):
        acid = parse_smiles("CC(=O)O")
        assert hydrogen_bond_donors(acid) == 1
        assert hydrogen_bond_acceptors(acid) == 2

    def test_hydrocarbon_has_none(self):
        hexane = parse_smiles("CCCCCC")
        assert hydrogen_bond_donors(hexane) == 0
        assert hydrogen_bond_acceptors(hexane) == 0


class TestRotatableBonds:
    def test_butane_has_one(self):
        assert rotatable_bonds(parse_smiles("CCCC")) == 1

    def test_ethane_has_none(self):
        assert rotatable_bonds(parse_smiles("CC")) == 0

    def test_ring_bonds_not_rotatable(self):
        assert rotatable_bonds(parse_smiles("C1CCCCC1")) == 0

    def test_double_bonds_not_rotatable(self):
        # The single bonds in CC=CC are terminal, so nothing rotates.
        assert rotatable_bonds(parse_smiles("CC=CC")) == 0
        assert rotatable_bonds(parse_smiles("C=C")) == 0
        # Pentadiene's central single bond does rotate.
        assert rotatable_bonds(parse_smiles("C=CC=C")) == 1

    def test_biphenyl_linkage(self):
        biphenyl = parse_smiles("c1ccc(cc1)c1ccccc1")
        assert rotatable_bonds(biphenyl) == 1


class TestLogP:
    def test_hydrocarbons_more_lipophilic_than_alcohols(self):
        assert estimate_logp(parse_smiles("CCCCCC")) > estimate_logp(
            parse_smiles("CCO")
        )

    def test_halogenation_raises_logp(self):
        assert estimate_logp(parse_smiles("c1ccccc1Cl")) > estimate_logp(
            parse_smiles("c1ccccc1")
        )

    def test_polar_groups_lower_logp(self):
        assert estimate_logp(parse_smiles("CCN")) < estimate_logp(
            parse_smiles("CCC")
        )


class TestTpsa:
    def test_hydrocarbon_zero(self):
        assert topological_polar_surface_area(parse_smiles("CCCC")) == 0.0

    def test_hydroxyl_contribution(self):
        assert topological_polar_surface_area(
            parse_smiles("CO")
        ) == pytest.approx(20.23)

    def test_carbonyl_contribution(self):
        assert topological_polar_surface_area(
            parse_smiles("CC(=O)C")
        ) == pytest.approx(17.07)

    def test_more_polar_atoms_more_area(self):
        one = topological_polar_surface_area(parse_smiles("CO"))
        two = topological_polar_surface_area(parse_smiles("OCCO"))
        assert two > one


class TestDescriptorSet:
    def test_aspirin_profile(self):
        aspirin = parse_smiles("CC(=O)Oc1ccccc1C(=O)O")
        desc = compute_descriptors(aspirin)
        assert desc.molecular_weight == pytest.approx(180.16, abs=0.05)
        assert desc.hbd == 1
        assert desc.hba == 4
        assert desc.ring_count == 1
        assert desc.heavy_atoms == 13
        assert desc.aromatic_atoms == 6
        assert desc.is_drug_like

    def test_lipinski_violations_counted(self):
        # A long greasy chain: high MW and high logP → 2 violations.
        grease = parse_smiles("C" * 60)
        desc = compute_descriptors(grease)
        assert desc.lipinski_violations >= 2
        assert not desc.is_drug_like


class TestDrugProfiles:
    """Lipinski counts of known drugs and building blocks: donors are
    N-H/O-H groups, acceptors every N and O, rotatable bonds the single
    non-ring bonds between two non-terminal heavy atoms."""

    @pytest.mark.parametrize("smiles,hbd,hba,rotatable,rings", [
        ("CC(=O)Oc1ccccc1C(=O)O", 1, 4, 3, 1),        # aspirin
        ("Cn1cnc2c1c(=O)n(C)c(=O)n2C", 0, 6, 0, 2),   # caffeine
        ("CC(C)Cc1ccc(cc1)C(C)C(=O)O", 1, 2, 4, 1),   # ibuprofen
        ("c1ccc2c(c1)cccc2", 0, 0, 0, 2),             # naphthalene
        ("c1cc[nH]c1", 1, 1, 0, 1),                   # pyrrole
        ("CS(=O)(=O)c1ccccc1", 0, 2, 1, 1),           # methyl phenyl sulfone
        ("OP(=O)(O)OC", 2, 4, 1, 0),                  # methyl phosphate
        ("[NH4+].[Cl-]", 1, 1, 0, 0),                 # ammonium chloride
    ])
    def test_known_counts(self, smiles, hbd, hba, rotatable, rings):
        desc = compute_descriptors(parse_smiles(smiles))
        assert desc.hbd == hbd
        assert desc.hba == hba
        assert desc.rotatable_bonds == rotatable
        assert desc.ring_count == rings
        assert desc.is_drug_like
