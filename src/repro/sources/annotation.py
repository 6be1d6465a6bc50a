"""GO/EC-shaped functional annotation source.

The third source the DrugTree integration pipeline consults: per-protein
functional annotations (GO terms, EC number, family membership) used to
label tree leaves and to filter queries by function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SourceError
from repro.sources.base import LatencyModel, TableBackedSource
from repro.sources.clock import SimulatedClock

KIND_ANNOTATION = "annotation"
KIND_PROTEINS_BY_FAMILY = "proteins_by_family"


@dataclass(frozen=True)
class AnnotationEntry:
    """Functional annotation of one protein."""

    protein_id: str
    go_terms: tuple[str, ...] = field(default_factory=tuple)
    ec_number: str = ""
    family: str = ""
    keywords: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.protein_id:
            raise SourceError("annotation entry needs a protein id")


class AnnotationSource(TableBackedSource):
    """Simulated remote annotation service.

    Kinds served:

    * ``annotation`` — ``protein_id`` → :class:`AnnotationEntry`
    * ``proteins_by_family`` — family name → tuple of protein ids
    """

    def __init__(self, clock: SimulatedClock,
                 entries: list[AnnotationEntry],
                 latency: LatencyModel | None = None) -> None:
        by_id: dict[str, object] = {}
        by_family: dict[str, list[str]] = {}
        for entry in entries:
            if entry.protein_id in by_id:
                raise SourceError(
                    f"duplicate annotation for {entry.protein_id!r}"
                )
            by_id[entry.protein_id] = entry
            if entry.family:
                by_family.setdefault(entry.family, []).append(
                    entry.protein_id
                )
        tables: dict[str, dict[str, object]] = {
            KIND_ANNOTATION: by_id,
            KIND_PROTEINS_BY_FAMILY: {
                family: tuple(ids) for family, ids in by_family.items()
            },
        }
        super().__init__("go-sim", clock, tables, latency)

    # -- typed helpers ----------------------------------------------------

    def annotation(self, protein_id: str) -> AnnotationEntry | None:
        return self.fetch(KIND_ANNOTATION, protein_id)  # type: ignore

    def annotations(self,
                    protein_ids: list[str]) -> dict[str, AnnotationEntry]:
        return self.fetch_many(KIND_ANNOTATION, protein_ids)  # type: ignore
