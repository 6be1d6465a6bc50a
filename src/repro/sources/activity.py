"""ChEMBL/BindingDB-shaped ligand activity source.

Serves compound records (SMILES plus precomputed descriptors) and binding
activities, indexed both by protein and by ligand — mirroring how the
real activity databases expose their REST endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chem.affinity import BindingRecord
from repro.errors import SourceError
from repro.sources.base import LatencyModel, TableBackedSource
from repro.sources.clock import SimulatedClock

KIND_COMPOUND = "compound"
KIND_ACTIVITY_BY_PROTEIN = "activity_by_protein"
KIND_ACTIVITY_BY_LIGAND = "activity_by_ligand"


@dataclass(frozen=True)
class CompoundEntry:
    """One compound record as an activity database reports it."""

    ligand_id: str
    smiles: str
    molecular_weight: float
    logp: float
    tpsa: float
    hbd: int
    hba: int
    rotatable_bonds: int
    ring_count: int

    def __post_init__(self) -> None:
        if not self.ligand_id or not self.smiles:
            raise SourceError("compound entry needs an id and SMILES")


class LigandActivitySource(TableBackedSource):
    """Simulated remote activity database.

    Kinds served:

    * ``compound`` — ``ligand_id`` → :class:`CompoundEntry`
    * ``activity_by_protein`` — ``protein_id`` → tuple of
      :class:`~repro.chem.affinity.BindingRecord`
    * ``activity_by_ligand`` — ``ligand_id`` → tuple of records
    """

    def __init__(self, clock: SimulatedClock,
                 compounds: list[CompoundEntry],
                 activities: list[BindingRecord],
                 latency: LatencyModel | None = None) -> None:
        compound_table: dict[str, object] = {}
        for compound in compounds:
            if compound.ligand_id in compound_table:
                raise SourceError(
                    f"duplicate ligand id {compound.ligand_id!r}"
                )
            compound_table[compound.ligand_id] = compound
        by_protein: dict[str, list[BindingRecord]] = {}
        by_ligand: dict[str, list[BindingRecord]] = {}
        for record in activities:
            by_protein.setdefault(record.protein_id, []).append(record)
            by_ligand.setdefault(record.ligand_id, []).append(record)
        tables: dict[str, dict[str, object]] = {
            KIND_COMPOUND: compound_table,
            KIND_ACTIVITY_BY_PROTEIN: {
                key: tuple(value) for key, value in by_protein.items()
            },
            KIND_ACTIVITY_BY_LIGAND: {
                key: tuple(value) for key, value in by_ligand.items()
            },
        }
        super().__init__("chembl-sim", clock, tables, latency)

    # -- typed helpers ----------------------------------------------------

    def compound(self, ligand_id: str) -> CompoundEntry | None:
        return self.fetch(KIND_COMPOUND, ligand_id)  # type: ignore

    def compounds(self, ligand_ids: list[str]) -> dict[str, CompoundEntry]:
        return self.fetch_many(KIND_COMPOUND, ligand_ids)  # type: ignore
