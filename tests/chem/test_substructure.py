"""Tests for substructure matching and the CONTAINING clause."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chem import (
    SubstructurePattern,
    filter_library,
    generate_library,
    has_substructure,
    parse_smiles,
)
from repro.core import EngineConfig, NaiveEngine, QueryEngine
from repro.errors import ChemError
from repro.workloads import DatasetConfig, QueryGenerator, build_dataset


class TestMatching:
    @pytest.mark.parametrize("target,fragment,expected", [
        ("CC(=O)Oc1ccccc1C(=O)O", "c1ccccc1", True),    # aspirin/benzene
        ("CC(=O)Oc1ccccc1C(=O)O", "C(=O)O", True),       # carboxyl
        ("CC(=O)Oc1ccccc1C(=O)O", "c1ccncc1", False),    # no pyridine
        ("c1ccccc1", "CCO", False),
        ("CCCO", "CC", True),
        ("C1CCCCC1", "c1ccccc1", False),  # aliphatic ring != aromatic
        ("c1ccc2ccccc2c1", "c1ccccc1", True),  # benzene in naphthalene
        ("CC(C)Cc1ccc(cc1)C(C)C(=O)O", "C(F)(F)F", False),
        ("FC(F)(F)c1ccccc1", "C(F)(F)F", True),
    ])
    def test_known_pairs(self, target, fragment, expected):
        assert has_substructure(parse_smiles(target), fragment) is expected

    def test_molecule_contains_itself(self):
        for smiles in ("CCO", "c1ccccc1", "Cn1cnc2c1c(=O)n(C)c(=O)n2C"):
            assert has_substructure(parse_smiles(smiles), smiles)

    def test_bond_order_respected(self):
        assert has_substructure(parse_smiles("C=CC"), "C=C")
        assert not has_substructure(parse_smiles("CCC"), "C=C")

    def test_match_count_symmetries(self):
        pattern = SubstructurePattern("c1ccccc1")
        # One benzene ring has 12 automorphisms.
        assert pattern.match_count(parse_smiles("c1ccccc1")) == 12

    def test_empty_pattern_rejected(self):
        with pytest.raises(ChemError):
            SubstructurePattern("")


def _vf2_mapping_count(fragment, mol) -> int:
    """The reference: networkx's VF2 monomorphisms under the documented
    atom (element, aromaticity) and bond (aromatic flag, else order)
    match rules."""
    def typed(molecule):
        graph = nx.Graph()
        for atom in molecule.atoms:
            graph.add_node(atom.index, kind=(atom.element, atom.aromatic))
        for bond in molecule.bonds:
            graph.add_edge(bond.first, bond.second, order=bond.order,
                           aromatic=bond.aromatic)
        return graph

    def bonds_match(target, pattern):
        if pattern["aromatic"] or target["aromatic"]:
            return pattern["aromatic"] == target["aromatic"]
        return pattern["order"] == target["order"]

    matcher = nx.algorithms.isomorphism.GraphMatcher(
        typed(mol), typed(fragment),
        node_match=lambda target, pattern: target["kind"] == pattern["kind"],
        edge_match=bonds_match)
    return sum(1 for _ in matcher.subgraph_monomorphisms_iter())


class TestSearchAgainstVF2:
    """The exact stage is a hand-written search; networkx's VF2 is what
    it has to agree with, mapping for mapping."""

    FRAGMENTS = ("c1cc[nH]c1", "C(=O)N", "C1CCNCC1", "c1ccccc1", "C(=O)O",
                 "c1ccncc1", "C(F)(F)F", "CCN", "C=C", "C", "C#N",
                 "c1ccc2ccccc2c1", "S(=O)(=O)N", "C.C", "CC.N")

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 79), st.sampled_from(FRAGMENTS))
    def test_property_mapping_count_equals_vf2(self, position, fragment):
        mol = generate_library(80, seed=5)[position].molecule
        pattern = SubstructurePattern(fragment)
        want = _vf2_mapping_count(pattern.fragment, mol)
        assert sum(1 for _ in pattern._mappings(mol, [])) == want
        assert pattern.matches(mol, screen=False) is (want > 0)
        assert pattern.matches(mol) is (want > 0)
        assert pattern.match_count(mol) == want

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 39), st.integers(0, 39))
    def test_property_whole_molecules_as_fragments(self, first, second):
        """Large, branched, fused-ring patterns: every library molecule
        searched for in every other."""
        library = generate_library(40, seed=17)
        pattern = SubstructurePattern(library[first].smiles)
        mol = library[second].molecule
        assert (sum(1 for _ in pattern._mappings(mol, []))
                == _vf2_mapping_count(pattern.fragment, mol))

    def test_disconnected_fragment_needs_distinct_atoms(self):
        pattern = SubstructurePattern("C.C")
        assert not pattern.matches(parse_smiles("CO"))
        assert pattern.match_count(parse_smiles("CCO")) == 2

    def test_aromatic_ring_bond_is_not_a_biaryl_link(self):
        # Phenanthrene's two outer rings are joined by an aromatic ring
        # bond; biphenyl's by a single bond between aromatic atoms.
        biphenyl = SubstructurePattern("c1ccccc1c1ccccc1")
        phenanthrene = parse_smiles("c1ccc2c(c1)ccc1ccccc21")
        assert _vf2_mapping_count(biphenyl.fragment, phenanthrene) == 0
        assert not biphenyl.matches(phenanthrene, screen=False)
        assert biphenyl.match_count(parse_smiles("Cc1ccccc1c1ccccc1")) == 8

    def test_extra_target_bonds_are_allowed(self):
        # Monomorphism, not induced: the open chain is in the ring.
        assert has_substructure(parse_smiles("C1CC1"), "CCC")
        assert SubstructurePattern("CCC").match_count(
            parse_smiles("C1CC1")) == 6


class TestScreen:
    def test_screen_prunes_impossible(self):
        pattern = SubstructurePattern("c1ccncc1")  # needs aromatic N
        assert not pattern.screen(parse_smiles("CCCCCC"))
        assert pattern.screen(parse_smiles("Cc1ccncc1"))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 59),
           st.sampled_from(["c1ccccc1", "C(=O)O", "C1CCNCC1", "CCN"]))
    def test_property_screen_is_sound(self, position, fragment):
        """The screen must never discard a true match."""
        library = generate_library(60, seed=90)
        pattern = SubstructurePattern(fragment)
        mol = library[position].molecule
        if pattern.matches(mol, screen=False):
            assert pattern.screen(mol)

    def test_filter_library_counts_screened(self):
        library = generate_library(40, seed=12)
        molecules = {lig.ligand_id: lig.molecule for lig in library}
        pattern = SubstructurePattern("c1ccccc1")
        matches, screened = filter_library(pattern, molecules)
        assert matches <= set(molecules)
        assert len(matches) <= screened <= len(molecules)


class TestContainingClause:
    @pytest.fixture(scope="class")
    def world(self):
        dataset = build_dataset(DatasetConfig(n_leaves=14, n_ligands=35,
                                              seed=23))
        return dataset, dataset.drugtree()

    def test_engine_results_are_true_matches(self, world):
        dataset, drugtree = world
        engine = QueryEngine(drugtree)
        result = engine.execute(
            "SELECT ligand_id, smiles CONTAINING 'c1ccccc1'"
        )
        assert result.rows
        for row in result.rows:
            assert has_substructure(parse_smiles(row["smiles"]),
                                    "c1ccccc1")

    def test_screen_ablation_identical_results(self, world):
        dataset, drugtree = world
        text = "SELECT ligand_id CONTAINING 'C(=O)O'"
        screened = QueryEngine(drugtree, EngineConfig(
            use_semantic_cache=False, use_substructure_screen=True,
        )).execute(text)
        unscreened = QueryEngine(drugtree, EngineConfig(
            use_semantic_cache=False, use_substructure_screen=False,
        )).execute(text)
        assert sorted(map(repr, screened.rows)) == \
            sorted(map(repr, unscreened.rows))
        assert screened.substructure_candidates <= \
            unscreened.substructure_candidates

    def test_naive_engine_agrees(self, world):
        dataset, drugtree = world
        generator = QueryGenerator(dataset.family, dataset.ligands,
                                   seed=2)
        naive = NaiveEngine(dataset.tree, dataset.registry)
        optimized = QueryEngine(drugtree)
        for _ in range(5):
            query = generator.draw("substructure")
            fast = optimized.execute(query)
            slow = naive.execute(query)
            assert sorted(map(repr, fast.rows)) == \
                sorted(map(repr, slow.rows)), f"diverged on {query}"

    def test_combined_with_similarity_and_bindings(self, world):
        dataset, drugtree = world
        probe = dataset.ligands[0].smiles
        text = (
            "SELECT ligand_id, p_affinity FROM bindings, ligands "
            "WHERE p_affinity >= 5.0 "
            f"SIMILAR TO '{probe}' >= 0.3 CONTAINING 'c1ccccc1'"
        )
        fast = QueryEngine(drugtree).execute(text)
        slow = NaiveEngine(dataset.tree, dataset.registry).execute(text)
        assert sorted(map(repr, fast.rows)) == sorted(map(repr,
                                                          slow.rows))

    def test_exact_cache_hit_but_no_subsumption(self, world):
        dataset, drugtree = world
        engine = QueryEngine(drugtree)
        text = "SELECT ligand_id CONTAINING 'c1ccccc1'"
        first = engine.execute(text)
        second = engine.execute(text)
        assert second.cache_outcome == "exact"
        assert second.rows == first.rows
