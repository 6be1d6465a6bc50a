"""Tests for the mini SMILES parser."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chem import parse_smiles
from repro.chem.generator import SCAFFOLDS, LINKERS, TERMINALS, Recipe
from repro.errors import ChemError


def formula(mol) -> str:
    """Molecular formula (C, H, then the rest alphabetically), implicit
    hydrogens counted: what the parser's atoms, bonds and charges imply."""
    counts = Counter(atom.element for atom in mol.atoms)
    counts["H"] += sum(mol.implicit_hydrogens(atom.index)
                       for atom in mol.atoms)
    order = ["C", "H"] + sorted(set(counts) - {"C", "H"})
    return "".join(element + (str(counts[element]) if counts[element] > 1
                              else "")
                   for element in order if counts[element])


class TestParserBasics:
    def test_single_atom(self):
        mol = parse_smiles("C")
        assert len(mol) == 1
        assert formula(mol) == "CH4"

    def test_chain(self):
        mol = parse_smiles("CCO")
        assert len(mol.bonds) == 2
        assert formula(mol) == "C2H6O"

    def test_two_char_elements(self):
        assert formula(parse_smiles("CCl")) == "CH3Cl"
        assert formula(parse_smiles("CBr")) == "CH3Br"

    def test_double_and_triple_bonds(self):
        assert formula(parse_smiles("C=C")) == "C2H4"
        assert formula(parse_smiles("C#C")) == "C2H2"
        assert formula(parse_smiles("C#N")) == "CHN"

    def test_branches(self):
        isobutane = parse_smiles("CC(C)C")
        assert formula(isobutane) == "C4H10"
        center = next(a.index for a in isobutane.atoms
                      if isobutane.degree(a.index) == 3)
        assert isobutane.implicit_hydrogens(center) == 1

    def test_nested_branches(self):
        mol = parse_smiles("CC(C(C)C)C")
        assert formula(mol) == "C6H14"

    def test_ring_closure(self):
        cyclohexane = parse_smiles("C1CCCCC1")
        assert len(cyclohexane.rings()) == 1
        assert formula(cyclohexane) == "C6H12"

    def test_percent_ring_closure(self):
        mol = parse_smiles("C%10CCCCC%10")
        assert len(mol.rings()) == 1

    def test_aromatic_ring(self):
        benzene = parse_smiles("c1ccccc1")
        assert formula(benzene) == "C6H6"
        assert all(atom.aromatic for atom in benzene.atoms)
        assert all(bond.aromatic for bond in benzene.bonds)

    def test_double_bond_ring_closure(self):
        cyclohexene = parse_smiles("C1=CCCCC1")
        assert formula(cyclohexene) == "C6H10"

    def test_disconnected_components(self):
        salt = parse_smiles("[NH4+].[Cl-]")
        assert formula(salt) == "H4ClN"


class TestBracketAtoms:
    def test_charges(self):
        assert parse_smiles("[NH4+]").atoms[0].charge == 1
        assert parse_smiles("[O-]").atoms[0].charge == -1
        assert parse_smiles("[N+2]").atoms[0].charge == 2
        assert parse_smiles("[O--]").atoms[0].charge == -2

    def test_explicit_hydrogens(self):
        pyrrole_n = parse_smiles("[nH]1cccc1").atoms[0]
        assert pyrrole_n.explicit_hydrogens == 1
        assert pyrrole_n.aromatic

    def test_bracket_without_h_means_zero(self):
        mol = parse_smiles("[N](C)(C)C")
        assert mol.implicit_hydrogens(0) == 0

    def test_unterminated_bracket(self):
        with pytest.raises(ChemError, match="unterminated"):
            parse_smiles("[NH4")

    def test_empty_bracket(self):
        with pytest.raises(ChemError):
            parse_smiles("[]")


class TestParserErrors:
    @pytest.mark.parametrize("bad", [
        "", "(", ")", "(C)C)", "C(", "1CC1", "C1CC", "C=",
        "Zz", "C..C", ".C", "C=.C", "C%1CC",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ChemError):
            parse_smiles(bad)

    def test_valence_violation(self):
        with pytest.raises(ChemError, match="valence"):
            parse_smiles("C(C)(C)(C)(C)C")

    def test_error_includes_input(self):
        with pytest.raises(ChemError, match="C=$|bad SMILES"):
            parse_smiles("C=")


class TestDrugCorpus:
    """Real drugs and building blocks, each read back as the chemistry
    says it is: formula, ring count, bonds, heavy atoms, weight and
    aromatic atoms."""

    DRUGS = [
        # smiles, formula, rings, bonds, heavy atoms, weight, aromatic
        ("CC(=O)Oc1ccccc1C(=O)O", "C9H8O4", 1, 13, 13, 180.16, 6),
        ("Cn1cnc2c1c(=O)n(C)c(=O)n2C", "C8H10N4O2", 2, 15, 14, 194.19, 9),
        ("CC(C)Cc1ccc(cc1)C(C)C(=O)O", "C13H18O2", 1, 15, 15, 206.28, 6),
        ("c1ccc2c(c1)cccc2", "C10H8", 2, 11, 10, 128.17, 10),
        ("C1=CCCCC1", "C6H10", 1, 6, 6, 82.15, 0),
        ("c1cc[nH]c1", "C4H5N", 1, 5, 5, 67.09, 5),
        ("CS(=O)(=O)c1ccccc1", "C7H8O2S", 1, 10, 10, 156.20, 6),
        ("OP(=O)(O)OC", "CH5O4P", 0, 5, 6, 112.02, 0),
        ("[NH4+].[Cl-]", "H4ClN", 0, 0, 2, 53.49, 0),
    ]

    @pytest.mark.parametrize(
        "smiles,want_formula,rings,bonds,heavy,weight,aromatic", DRUGS)
    def test_parse_matches_known_structure(self, smiles, want_formula,
                                           rings, bonds, heavy, weight,
                                           aromatic):
        mol = parse_smiles(smiles)
        assert formula(mol) == want_formula
        assert len(mol.rings()) == rings
        assert len(mol.bonds) == bonds
        assert mol.heavy_atom_count == heavy
        assert mol.molecular_weight == pytest.approx(weight, abs=0.01)
        assert sum(atom.aromatic for atom in mol.atoms) == aromatic


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_property_generated_smiles_reparses_to_the_same_ligand(seed):
    """A generated ligand's SMILES text is the whole of it: parsing the
    text again gives the molecule every downstream artefact was computed
    from — same formula, rings, descriptors and exact fingerprint."""
    import random as _random

    from repro.chem import (
        circular_fingerprint,
        compute_descriptors,
        generate_ligand,
    )

    ligand = generate_ligand("L", _random.Random(seed))
    reparsed = parse_smiles(ligand.smiles)
    assert formula(reparsed) == formula(ligand.molecule)
    assert len(reparsed.rings()) == len(ligand.molecule.rings())
    assert compute_descriptors(reparsed) == ligand.descriptors
    assert circular_fingerprint(reparsed) == ligand.fingerprint


# Every grammar combination the generator can emit must parse; drive the
# whole recipe space through hypothesis.
@settings(max_examples=150, deadline=None)
@given(
    scaffold=st.integers(0, len(SCAFFOLDS) - 1),
    subs=st.lists(
        st.tuples(st.integers(0, len(LINKERS) - 1),
                  st.integers(0, len(TERMINALS) - 1)),
        min_size=2, max_size=2,
    ),
)
def test_property_generator_grammar_parses_or_fails_cleanly(scaffold, subs):
    slots = SCAFFOLDS[scaffold].count("{")
    recipe = Recipe(scaffold, tuple(subs[:slots]))
    try:
        mol = parse_smiles(recipe.render())
    except ChemError:
        return  # a chemically invalid assembly is acceptable; crashes are not
    assert mol.heavy_atom_count >= 4
