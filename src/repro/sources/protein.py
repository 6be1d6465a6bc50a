"""PDB-shaped protein structure source.

Serves :class:`ProteinEntry` records: sequence, organism, experimental
metadata and the identifiers of co-crystallised ligands — the fields the
DrugTree integration pipeline reads when it decorates tree leaves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bio.seq import ProteinSequence
from repro.errors import SourceError
from repro.sources.base import LatencyModel, TableBackedSource
from repro.sources.clock import SimulatedClock

KIND_PROTEIN = "protein"
KIND_PROTEINS_BY_ORGANISM = "proteins_by_organism"


@dataclass(frozen=True)
class ProteinEntry:
    """One protein structure record (PDB-entry shaped)."""

    protein_id: str
    sequence: str
    organism: str
    family: str = ""
    resolution_angstrom: float = 2.0
    method: str = "X-RAY DIFFRACTION"
    ligand_ids: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.protein_id:
            raise SourceError("protein entry needs an id")
        if self.resolution_angstrom <= 0:
            raise SourceError("resolution must be positive")

    def to_sequence(self) -> ProteinSequence:
        """The entry's sequence as a :class:`ProteinSequence`."""
        return ProteinSequence(self.protein_id, self.sequence,
                               description=self.organism)


class ProteinStructureSource(TableBackedSource):
    """Simulated remote PDB.

    Kinds served:

    * ``protein`` — ``protein_id`` → :class:`ProteinEntry`
    * ``proteins_by_organism`` — organism → tuple of protein ids
    """

    def __init__(self, clock: SimulatedClock,
                 entries: list[ProteinEntry],
                 name: str = "pdb-sim",
                 latency: LatencyModel | None = None,
                 page_size: int = 100) -> None:
        by_id: dict[str, object] = {}
        by_organism: dict[str, list[str]] = {}
        for entry in entries:
            if entry.protein_id in by_id:
                raise SourceError(
                    f"duplicate protein id {entry.protein_id!r}"
                )
            by_id[entry.protein_id] = entry
            by_organism.setdefault(entry.organism, []).append(
                entry.protein_id
            )
        tables: dict[str, dict[str, object]] = {
            KIND_PROTEIN: by_id,
            KIND_PROTEINS_BY_ORGANISM: {
                organism: tuple(ids)
                for organism, ids in by_organism.items()
            },
        }
        super().__init__(name, clock, tables, latency, page_size)

    # -- typed helpers ----------------------------------------------------

    def get_entries(self, protein_ids: list[str]) -> dict[str, ProteinEntry]:
        return self.fetch_many(KIND_PROTEIN, protein_ids)  # type: ignore
