"""Tests for the protein / activity / annotation sources."""

import pytest

from repro.chem import ActivityType, BindingRecord
from repro.errors import SourceError
from repro.sources import (
    AnnotationEntry,
    AnnotationSource,
    CompoundEntry,
    KIND_ACTIVITY_BY_LIGAND,
    KIND_ACTIVITY_BY_PROTEIN,
    KIND_COMPOUND,
    KIND_PROTEIN,
    KIND_PROTEINS_BY_FAMILY,
    KIND_PROTEINS_BY_ORGANISM,
    LigandActivitySource,
    ProteinEntry,
    ProteinStructureSource,
    SimulatedClock,
)


@pytest.fixture
def clock():
    return SimulatedClock()


def _proteins():
    return [
        ProteinEntry("P1", "MKTAYIAKQR", "Homo sapiens", family="DHFR",
                     ligand_ids=("L1", "L2")),
        ProteinEntry("P2", "MKTAYIWKQR", "Mus musculus", family="DHFR"),
        ProteinEntry("P3", "MKTWYIAKQR", "Homo sapiens", family="TS"),
    ]


def _compounds():
    return [
        CompoundEntry("L1", "CCO", 46.07, -0.1, 20.2, 1, 1, 0, 0),
        CompoundEntry("L2", "c1ccccc1", 78.11, 1.8, 0.0, 0, 0, 0, 1),
    ]


def _activities():
    return [
        BindingRecord("L1", "P1", ActivityType.KI, 50.0),
        BindingRecord("L1", "P2", ActivityType.KI, 900.0),
        BindingRecord("L2", "P1", ActivityType.IC50, 2000.0),
    ]


class TestProteinSource:
    def test_get_entry(self, clock):
        source = ProteinStructureSource(clock, _proteins())
        entry = source.fetch(KIND_PROTEIN, "P1")
        assert entry.organism == "Homo sapiens"
        assert entry.ligand_ids == ("L1", "L2")

    def test_get_entries_batch(self, clock):
        source = ProteinStructureSource(clock, _proteins())
        out = source.get_entries(["P1", "P3", "nope"])
        assert set(out) == {"P1", "P3"}
        assert source.stats.roundtrips == 1

    def test_list_ids(self, clock):
        source = ProteinStructureSource(clock, _proteins())
        assert source.scan_keys(KIND_PROTEIN) == ["P1", "P2", "P3"]

    def test_by_organism(self, clock):
        source = ProteinStructureSource(clock, _proteins())
        assert set(source.fetch(KIND_PROTEINS_BY_ORGANISM,
                                "Homo sapiens")) == {"P1", "P3"}
        assert source.fetch(KIND_PROTEINS_BY_ORGANISM, "Rattus") is None

    def test_duplicate_ids_rejected(self, clock):
        entries = _proteins() + [ProteinEntry("P1", "MKT", "X")]
        with pytest.raises(SourceError, match="duplicate"):
            ProteinStructureSource(clock, entries)

    def test_entry_to_sequence(self):
        entry = _proteins()[0]
        seq = entry.to_sequence()
        assert seq.seq_id == "P1"
        assert seq.residues == "MKTAYIAKQR"

    def test_entry_validation(self):
        with pytest.raises(SourceError):
            ProteinEntry("", "MKT", "X")
        with pytest.raises(SourceError):
            ProteinEntry("P9", "MKT", "X", resolution_angstrom=0)


class TestActivitySource:
    def test_compound_lookup(self, clock):
        source = LigandActivitySource(clock, _compounds(), _activities())
        compound = source.compound("L1")
        assert compound.smiles == "CCO"
        assert source.compound("zz") is None

    def test_compounds_batch_and_kinds(self, clock):
        source = LigandActivitySource(clock, _compounds(), _activities())
        batch = source.compounds(["L1", "zz"])
        assert set(batch) == {"L1"}
        assert batch["L1"].smiles == "CCO"
        assert source.kinds() == {KIND_COMPOUND, KIND_ACTIVITY_BY_PROTEIN,
                                  KIND_ACTIVITY_BY_LIGAND}
        assert source.stats.roundtrips == 1

    def test_activities_by_protein(self, clock):
        source = LigandActivitySource(clock, _compounds(), _activities())
        records = source.fetch(KIND_ACTIVITY_BY_PROTEIN, "P1")
        assert {r.ligand_id for r in records} == {"L1", "L2"}
        assert source.fetch(KIND_ACTIVITY_BY_PROTEIN, "P9") is None

    def test_activities_by_ligand(self, clock):
        source = LigandActivitySource(clock, _compounds(), _activities())
        records = source.fetch(KIND_ACTIVITY_BY_LIGAND, "L1")
        assert {r.protein_id for r in records} == {"P1", "P2"}

    def test_batch_by_proteins(self, clock):
        source = LigandActivitySource(clock, _compounds(), _activities())
        out = source.fetch_many(KIND_ACTIVITY_BY_PROTEIN, ["P1", "P2"])
        assert len(out["P1"]) == 2
        assert len(out["P2"]) == 1
        assert source.stats.roundtrips == 1

    def test_duplicate_compound_rejected(self, clock):
        compounds = _compounds() + [_compounds()[0]]
        with pytest.raises(SourceError, match="duplicate"):
            LigandActivitySource(clock, compounds, [])

    def test_compound_validation(self):
        with pytest.raises(SourceError):
            CompoundEntry("", "CCO", 46.0, 0, 0, 0, 0, 0, 0)


class TestAnnotationSource:
    def _entries(self):
        return [
            AnnotationEntry("P1", go_terms=("GO:0004146", "GO:0005829"),
                            ec_number="1.5.1.3", family="DHFR"),
            AnnotationEntry("P2", go_terms=("GO:0004146",), family="DHFR"),
            AnnotationEntry("P3", family="TS"),
        ]

    def test_annotation_lookup(self, clock):
        source = AnnotationSource(clock, self._entries())
        ann = source.annotation("P1")
        assert ann.ec_number == "1.5.1.3"
        assert "GO:0004146" in ann.go_terms

    def test_family_index(self, clock):
        source = AnnotationSource(clock, self._entries())
        assert set(source.fetch(KIND_PROTEINS_BY_FAMILY, "DHFR")) == {
            "P1", "P2"}
        assert source.fetch(KIND_PROTEINS_BY_FAMILY, "unknown") is None

    def test_batch(self, clock):
        source = AnnotationSource(clock, self._entries())
        out = source.annotations(["P1", "P2", "P3"])
        assert len(out) == 3
        assert source.stats.roundtrips == 1

    def test_duplicate_rejected(self, clock):
        entries = self._entries() + [AnnotationEntry("P1")]
        with pytest.raises(SourceError, match="duplicate"):
            AnnotationSource(clock, entries)
