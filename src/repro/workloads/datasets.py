"""End-to-end dataset builder: family + ligands + federation.

One call to :func:`build_dataset` produces everything an experiment
needs: a simulated clock, the three populated remote sources behind a
registry, the protein family, and the ligand library. Binding strength
carries *phylogenetic signal* — each ligand binds strongly around a
"center" leaf and decays with tree distance — so clade-level queries
have realistic structure (selective clades exist and are findable).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field

from repro.chem.affinity import ActivityType, BindingRecord
from repro.chem.generator import Ligand, generate_library
from repro.core.drugtree import DrugTree
from repro.core.integrate import IntegrationPipeline, IntegrationReport
from repro.errors import WorkloadError
from repro.sources.activity import CompoundEntry, LigandActivitySource
from repro.sources.annotation import AnnotationEntry, AnnotationSource
from repro.sources.base import LatencyModel
from repro.sources.clock import SimulatedClock
from repro.sources.protein import ProteinEntry, ProteinStructureSource
from repro.sources.registry import SourceRegistry
from repro.storage.durable import StorageConfig
from repro.workloads.families import ProteinFamily, make_family

#: Method strings sampled for protein entries.
_METHODS = ("X-RAY DIFFRACTION", "SOLUTION NMR", "ELECTRON MICROSCOPY")

#: Strongest (center) pAffinity drawn per ligand: uniform in this range.
_PEAK_P_AFFINITY = (6.0, 9.5)
#: pAffinity lost per unit of tree distance from the center leaf.
_DISTANCE_DECAY = 1.2
#: Gaussian noise added to each measurement (std dev, pAff units).
MEASUREMENT_NOISE = 0.25
#: Records below this pAffinity are never measured/recorded.
DETECTION_FLOOR = 4.5
#: Probability a would-be-detectable interaction was ever assayed.
ASSAY_COVERAGE = 0.65
#: Residues per simulated protein sequence.
SEQUENCE_LENGTH = 100


def _family_go_term(family_name: str) -> str:
    """One GO term per family; crc32, as ``hash()`` is salted per process."""
    return f"GO:{4000 + zlib.crc32(family_name.encode()) % 100:07d}"


@dataclass(frozen=True)
class DatasetConfig:
    """Knobs of one synthetic dataset."""

    n_leaves: int = 60
    n_ligands: int = 150
    seed: int = 0
    #: Per-round-trip base latency of each source, seconds.
    source_latency_s: float = 0.05

    def __post_init__(self) -> None:
        if self.n_leaves < 2 or self.n_ligands < 1:
            raise WorkloadError("dataset needs >=2 leaves and >=1 ligand")


@dataclass
class Dataset:
    """A fully wired simulated world."""

    config: DatasetConfig
    clock: SimulatedClock
    family: ProteinFamily
    ligands: list[Ligand]
    bindings: list[BindingRecord]
    registry: SourceRegistry
    protein_source: ProteinStructureSource
    activity_source: LigandActivitySource
    annotation_source: AnnotationSource
    _drugtree: DrugTree | None = field(default=None, repr=False)

    @property
    def tree(self):
        return self.family.tree

    def integrate(self, mode: str = "batched",
                  create_indexes: bool = True,
                  storage: "StorageConfig | None" = None,
                  ) -> tuple[DrugTree, IntegrationReport]:
        """Run the integration pipeline over this dataset's federation."""
        pipeline = IntegrationPipeline(self.registry, mode=mode)
        return pipeline.build_drugtree(self.tree,
                                       create_indexes=create_indexes,
                                       storage=storage)

    def drugtree(self) -> DrugTree:
        """A cached, batched-integration DrugTree for this dataset."""
        if self._drugtree is None:
            self._drugtree, _ = self.integrate()
        return self._drugtree


def _latency(config: DatasetConfig, seed: int) -> LatencyModel:
    return LatencyModel(
        base_s=config.source_latency_s,
        jitter_fraction=0.0,  # same seed, same virtual time
        seed=seed,
    )


def generate_bindings(family: ProteinFamily, ligands: list[Ligand],
                      config: DatasetConfig) -> list[BindingRecord]:
    """Draw phylogenetically structured binding records."""
    rng = random.Random(config.seed + 1000)
    names, distances = family.tree.cophenetic_matrix()
    index = {name: i for i, name in enumerate(names)}
    low, high = _PEAK_P_AFFINITY
    records: list[BindingRecord] = []
    activity_types = list(ActivityType)
    for ligand in ligands:
        center = rng.choice(names)
        peak = rng.uniform(low, high)
        for protein_id in names:
            distance = float(distances[index[center], index[protein_id]])
            p_affinity = (peak - _DISTANCE_DECAY * distance
                          + rng.gauss(0.0, MEASUREMENT_NOISE))
            if p_affinity < DETECTION_FLOOR:
                continue
            if rng.random() > ASSAY_COVERAGE:
                continue
            value_nm = 10.0 ** (9.0 - p_affinity)
            records.append(BindingRecord(
                ligand_id=ligand.ligand_id,
                protein_id=protein_id,
                activity_type=rng.choice(activity_types),
                value_nm=value_nm,
                assay_id=f"assay_{len(records):06d}",
                source="chembl-sim",
            ))
    return records


def build_dataset(config: DatasetConfig | None = None) -> Dataset:
    """Build one complete simulated world from a config."""
    config = config or DatasetConfig()
    rng = random.Random(config.seed)
    family = make_family(
        config.n_leaves,
        seed=config.seed,
        sequence_length=SEQUENCE_LENGTH,
    )
    ligands = generate_library(config.n_ligands, seed=config.seed + 500)
    bindings = generate_bindings(family, ligands, config)

    clock = SimulatedClock()
    by_protein: dict[str, list[str]] = {}
    for record in bindings:
        by_protein.setdefault(record.protein_id, []).append(
            record.ligand_id
        )

    protein_entries = []
    sequences = {seq.seq_id: seq for seq in family.sequences}
    for protein_id in family.protein_ids:
        bound = by_protein.get(protein_id, [])
        protein_entries.append(ProteinEntry(
            protein_id=protein_id,
            sequence=sequences[protein_id].residues,
            organism=family.organisms[protein_id],
            family=family.families[protein_id],
            resolution_angstrom=round(rng.uniform(1.2, 3.2), 2),
            method=rng.choice(_METHODS),
            ligand_ids=tuple(sorted(set(bound))[:8]),
        ))

    compounds = [
        CompoundEntry(
            ligand_id=ligand.ligand_id,
            smiles=ligand.smiles,
            molecular_weight=ligand.descriptors.molecular_weight,
            logp=ligand.descriptors.logp,
            tpsa=ligand.descriptors.tpsa,
            hbd=ligand.descriptors.hbd,
            hba=ligand.descriptors.hba,
            rotatable_bonds=ligand.descriptors.rotatable_bonds,
            ring_count=ligand.descriptors.ring_count,
        )
        for ligand in ligands
    ]

    annotations = [
        AnnotationEntry(
            protein_id=protein_id,
            go_terms=(_family_go_term(family.families[protein_id]),
                      "GO:0005829"),
            ec_number=f"{1 + rng.randrange(6)}.{rng.randrange(20)}."
                      f"{rng.randrange(20)}.{rng.randrange(100)}",
            family=family.families[protein_id],
            keywords=("enzyme", "cytoplasm"),
        )
        for protein_id in family.protein_ids
    ]

    protein_source = ProteinStructureSource(
        clock, protein_entries, latency=_latency(config, 1),
    )
    activity_source = LigandActivitySource(
        clock, compounds, bindings, latency=_latency(config, 2),
    )
    annotation_source = AnnotationSource(
        clock, annotations, latency=_latency(config, 3),
    )
    registry = SourceRegistry()
    registry.register(protein_source)
    registry.register(activity_source)
    registry.register(annotation_source)

    return Dataset(
        config=config,
        clock=clock,
        family=family,
        ligands=ligands,
        bindings=bindings,
        registry=registry,
        protein_source=protein_source,
        activity_source=activity_source,
        annotation_source=annotation_source,
    )
