"""Multi-source integration pipeline.

"The data is being obtained from multiple sources, integrated and then
presented to the user" — this module is that step. It pulls protein
entries, functional annotations, binding activities and compound records
from the federation and lands them in a :class:`DrugTree` overlay.

Three fetch modes are provided because their differences *are*
experiment E3: ``per_item`` issues one round-trip per key (the
unoptimized pattern), ``batched`` uses the sources' batch endpoints
sequentially, and ``concurrent`` scatter/gathers the independent pulls
through a :class:`~repro.sources.scheduler.FetchScheduler` so
overlapping round-trips cost ``max`` virtual latency instead of the
sum (see docs/FEDERATION.md).

The record→row mapping helpers are shared with the naive engine
(:mod:`repro.core.baseline`) so that both systems derive byte-identical
rows from the same federated records — which is what makes the
optimized-vs-naive result-equivalence tests meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.bio.distance import distance_matrix
from repro.bio.nj import neighbor_joining
from repro.bio.tree import PhyloTree
from repro.bio.upgma import upgma
from repro.core.drugtree import DrugTree
from repro.errors import QueryError
from repro.obs import WallTimer, get_metrics, get_tracer
from repro.sources.activity import (
    KIND_ACTIVITY_BY_PROTEIN,
    KIND_COMPOUND,
    CompoundEntry,
)
from repro.sources.annotation import KIND_ANNOTATION, AnnotationEntry
from repro.sources.clock import Stopwatch
from repro.sources.protein import KIND_PROTEIN, ProteinEntry
from repro.sources.registry import SourceRegistry
from repro.sources.scheduler import FetchScheduler
from repro.storage.durable import StorageConfig

FETCH_MODES = ("batched", "per_item", "concurrent")


def is_drug_like(molecular_weight: float, logp: float,
                 hbd: int, hba: int) -> bool:
    """Lipinski rule-of-five verdict from stored descriptor columns."""
    violations = sum((
        molecular_weight > 500,
        logp > 5,
        hbd > 5,
        hba > 10,
    ))
    return violations <= 1


def protein_row(protein_id: str,
                entry: ProteinEntry | None,
                annotation: AnnotationEntry | None,
                include_sequence: bool = False) -> dict[str, Any]:
    """Merge a structure entry and its annotation into protein columns.

    ``include_sequence`` additionally carries the sequence through (the
    integrator wants it for the k-mer index; the naive engine's row
    comparison does not, since sequences are not a table column).
    """
    row = {
        "protein_id": protein_id,
        "organism": entry.organism if entry else None,
        "family": (
            (annotation.family if annotation and annotation.family else None)
            or (entry.family if entry and entry.family else None)
        ),
        "ec_number": (annotation.ec_number
                      if annotation and annotation.ec_number else None),
        "resolution": entry.resolution_angstrom if entry else None,
    }
    if include_sequence:
        row["sequence"] = entry.sequence if entry else None
    return row


def ligand_row(compound: CompoundEntry) -> dict[str, Any]:
    """Compound record → ``add_ligand`` keyword arguments."""
    descriptors = {
        "molecular_weight": compound.molecular_weight,
        "logp": compound.logp,
        "tpsa": compound.tpsa,
        "hbd": compound.hbd,
        "hba": compound.hba,
        "rotatable_bonds": compound.rotatable_bonds,
        "ring_count": compound.ring_count,
        "is_drug_like": is_drug_like(compound.molecular_weight,
                                     compound.logp, compound.hbd,
                                     compound.hba),
    }
    return {
        "ligand_id": compound.ligand_id,
        "smiles": compound.smiles,
        "descriptors": descriptors,
    }


@dataclass
class IntegrationReport:
    """What one integration run cost and produced."""

    mode: str
    proteins: int = 0
    ligands: int = 0
    bindings: int = 0
    roundtrips: int = 0
    #: Elapsed virtual time of the run (critical path: under the
    #: concurrent mode overlapping round-trips only count once).
    virtual_latency_s: float = 0.0
    #: Virtual seconds the scheduler saved versus sequential dispatch.
    overlap_saved_s: float = 0.0
    wall_time_s: float = 0.0
    #: Record kind -> fresh/partial/missing, filled when the concurrent
    #: mode ran against a breaker-enabled scheduler (resilient path).
    statuses: dict[str, str] = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        return any(status != "fresh" for status in self.statuses.values())

    def as_dict(self) -> dict[str, float]:
        return {
            "mode": self.mode,
            "proteins": self.proteins,
            "ligands": self.ligands,
            "bindings": self.bindings,
            "roundtrips": self.roundtrips,
            "virtual_latency_s": round(self.virtual_latency_s, 4),
            "overlap_saved_s": round(self.overlap_saved_s, 4),
            "wall_time_s": round(self.wall_time_s, 6),
            "statuses": dict(self.statuses),
            "degraded": self.degraded,
        }


class IntegrationPipeline:
    """Pulls federated records into a DrugTree overlay."""

    def __init__(self, registry: SourceRegistry,
                 mode: str = "batched",
                 scheduler: FetchScheduler | None = None) -> None:
        if mode not in FETCH_MODES:
            raise QueryError(
                f"unknown fetch mode {mode!r} (known: {FETCH_MODES})"
            )
        self.registry = registry
        self.mode = mode
        if scheduler is None and mode == "concurrent":
            scheduler = FetchScheduler(registry)
        self.scheduler = scheduler

    # -- fetch helpers ----------------------------------------------------------

    def _fetch_map(self, kind: str, keys: list[str]) -> dict[str, Any]:
        """Fetch *keys* of *kind*, honouring the configured mode."""
        if self.mode == "batched":
            return self.registry.fetch_many(kind, keys)
        found: dict[str, Any] = {}
        for key in keys:
            record = self.registry.fetch(kind, key)
            if record is not None:
                found[key] = record
        return found

    def _gather(self, report: "IntegrationReport",
                requests: list[tuple[str, list[str]]],
                ) -> dict[str, dict[str, Any]]:
        """One scatter/gather batch of the concurrent mode. Under the
        scheduler's degrade policy dark sources come back flagged per
        kind in *report* and the overlay is built from whatever
        answered; a plain scheduler raises."""
        outcome = self.scheduler.fetch_all_resilient(requests)
        if self.scheduler.degrades():
            report.statuses.update(outcome.statuses)
        return outcome.records

    # -- the protein-motivated tree ------------------------------------------

    def build_tree_from_sources(self, protein_ids: list[str] | None = None,
                                method: str = "nj",
                                correction: str = "kimura",
                                clade_prefix: str = "clade",
                                ) -> PhyloTree:
        """Infer the phylogeny from the federation's own sequences.

        This is the "protein-motivated" step of the paper's title: fetch
        each protein's sequence from the structure source, compute
        pairwise evolutionary distances, and build the tree (``nj`` with
        midpoint rooting, or ``upgma``). Internal nodes get stable
        preorder clade names so queries can address them.

        With *protein_ids* omitted, the whole structure source is used.
        """
        if method not in ("nj", "upgma"):
            raise QueryError(f"unknown tree method {method!r}")
        if protein_ids is None:
            protein_ids = self.registry.scan_keys(KIND_PROTEIN)
        if len(protein_ids) < 2:
            raise QueryError("need at least two proteins for a tree")
        entries = self._fetch_map(KIND_PROTEIN, protein_ids)
        missing = [pid for pid in protein_ids if pid not in entries]
        if missing:
            raise QueryError(
                f"structure source has no sequence for {missing[:5]}"
            )
        sequences = [entries[pid].to_sequence() for pid in protein_ids]
        matrix = distance_matrix(sequences, correction=correction)
        if method == "upgma":
            tree = upgma(matrix)
        else:
            tree = neighbor_joining(matrix).reroot_at_midpoint()
        counter = 0
        for node in tree.preorder():
            if not node.is_leaf and not node.name:
                node.name = f"{clade_prefix}_{counter:04d}"
                counter += 1
        return tree

    # -- the pipeline ----------------------------------------------------------

    def build_drugtree(self, tree: PhyloTree,
                       create_indexes: bool = True,
                       storage: "StorageConfig | None" = None,
                       ) -> tuple[DrugTree, IntegrationReport]:
        """Integrate every leaf's records into a fresh DrugTree.

        Tree leaves are the protein ids; proteins absent from the
        structure source still get a (sparse) row so the overlay always
        covers the whole tree. *storage* passes through to
        :class:`DrugTree` — a durable config makes every integrated
        record land in the write-ahead log.
        """
        stats_before = self.registry.combined_stats()
        overlap_before = (self.scheduler.stats.overlap_saved_s
                          if self.scheduler else 0.0)
        report = IntegrationReport(mode=self.mode)

        drugtree = DrugTree(tree, storage=storage)
        protein_ids = tree.leaf_names()
        clock = self.registry.sources()[0].clock

        tracer = get_tracer()
        with tracer.span("integrate.build_drugtree", mode=self.mode,
                         proteins=len(protein_ids)) as span, \
                WallTimer() as timer, Stopwatch(clock) as virtual:
            if self.mode == "concurrent":
                # The three per-protein pulls are independent and hit
                # three distinct sources: one scatter/gather batch.
                with tracer.span("integrate.fetch_overlapped"):
                    gathered = self._gather(report, [
                        (KIND_PROTEIN, protein_ids),
                        (KIND_ANNOTATION, protein_ids),
                        (KIND_ACTIVITY_BY_PROTEIN, protein_ids),
                    ])
                entries = gathered[KIND_PROTEIN]
                annotations = gathered[KIND_ANNOTATION]
                activity_map = gathered[KIND_ACTIVITY_BY_PROTEIN]
            else:
                with tracer.span("integrate.fetch_proteins"):
                    entries = self._fetch_map(KIND_PROTEIN, protein_ids)
                    annotations = self._fetch_map(KIND_ANNOTATION,
                                                  protein_ids)
                with tracer.span("integrate.fetch_activities"):
                    activity_map = self._fetch_map(
                        KIND_ACTIVITY_BY_PROTEIN, protein_ids,
                    )
            for protein_id in protein_ids:
                drugtree.add_protein(**protein_row(
                    protein_id,
                    entries.get(protein_id),
                    annotations.get(protein_id),
                    include_sequence=True,
                ))
                report.proteins += 1

            all_records = [
                record
                for records in activity_map.values()
                for record in records
            ]
            ligand_ids = sorted(
                {record.ligand_id for record in all_records}
            )
            with tracer.span("integrate.fetch_compounds"):
                if self.mode == "concurrent":
                    # One kind, but its pages still overlap.
                    compounds = self._gather(
                        report, [(KIND_COMPOUND, ligand_ids)],
                    )[KIND_COMPOUND]
                else:
                    compounds = self._fetch_map(KIND_COMPOUND, ligand_ids)
            for ligand_id in ligand_ids:
                compound = compounds.get(ligand_id)
                if compound is None:
                    continue  # activity without a compound record: skip
                drugtree.add_ligand(**ligand_row(compound))
                report.ligands += 1

            known_ligands = set(compounds)
            for record in all_records:
                if record.ligand_id not in known_ligands:
                    continue
                drugtree.add_binding(record)
                report.bindings += 1

            with tracer.span("integrate.index_and_materialize"):
                if create_indexes:
                    drugtree.create_default_indexes()
                drugtree.refresh_statistics()
            span.set("ligands", report.ligands)
            span.set("bindings", report.bindings)

        stats_after = self.registry.combined_stats()
        report.roundtrips = int(stats_after["roundtrips"]
                                - stats_before["roundtrips"])
        # Elapsed virtual time, not sum-of-charges: identical for the
        # sequential modes, but under "concurrent" overlapping
        # round-trips only count their critical path.
        report.virtual_latency_s = virtual.elapsed
        if self.scheduler is not None:
            report.overlap_saved_s = (
                self.scheduler.stats.overlap_saved_s - overlap_before
            )
        report.wall_time_s = timer.elapsed_s
        metrics = get_metrics()
        metrics.counter("integrate.runs").inc()
        metrics.counter("integrate.roundtrips").inc(report.roundtrips)
        metrics.counter("integrate.bindings").inc(report.bindings)
        if report.degraded:
            metrics.counter("integrate.degraded_runs").inc()
        metrics.histogram("integrate.wall_s").observe(report.wall_time_s)
        return drugtree, report
