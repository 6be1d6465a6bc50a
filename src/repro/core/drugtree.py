"""The DrugTree: a phylogenetic tree with a ligand-data overlay.

This is the system's central object — "a tool that overlays ligand data
on a protein-motivated phylogenetic tree". It owns:

* the :class:`~repro.bio.tree.PhyloTree` and its interval labeling;
* the three overlay tables (``proteins``, ``ligands``, ``bindings``);
* the materialized per-clade aggregates;
* the ligand fingerprint library for similarity search;
* table statistics for the optimizer.

Use :meth:`DrugTree.build` for the common case, or construct empty and
populate through :meth:`add_protein` / :meth:`add_ligand` /
:meth:`add_binding` (which is what the integration pipeline does).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import Any

from repro.bio.seq import ProteinSequence
from repro.bio.seqsearch import KmerIndex, SearchHit
from repro.bio.tree import PhyloTree
from repro.chem.affinity import BindingRecord
from repro.chem.fingerprint import Fingerprint, circular_fingerprint
from repro.chem.mol import Molecule
from repro.chem.search import FingerprintIndex
from repro.chem.smiles import parse_smiles
from repro.core.labeling import IntervalLabeling
from repro.core.overlay import (
    BINDINGS_TABLE,
    LIGANDS_TABLE,
    PROTEINS_TABLE,
    CladeAggregates,
    make_overlay_tables,
)
from repro.errors import QueryError
from repro.obs import get_metrics, get_tracer
from repro.storage.durable import Database, StorageConfig
from repro.storage.statistics import TableStatistics, analyze
from repro.storage.table import Table

#: A table is re-ANALYZEd once it has seen more than
#: ``max(STALE_MIN_MUTATIONS, STALE_FRACTION * analyzed_rows)``
#: mutations since its last ANALYZE. Below that, slightly stale
#: statistics only perturb cost estimates — never correctness.
STALE_MIN_MUTATIONS = 16
STALE_FRACTION = 0.1


class DrugTree:
    """A queryable protein-ligand overlay over a phylogenetic tree.

    Purely in-memory by default. With
    ``storage=StorageConfig(durable=True, data_dir=...)`` the overlay
    tables write ahead to one shared
    :class:`~repro.storage.durable.db.Database`, and constructing the
    DrugTree over a non-empty data directory *recovers* it: committed
    rows replay through the path of a live insert (column stores,
    indexes and the clade aggregates rebuild themselves), and ligand
    fingerprints are recomputed from the stored SMILES. The k-mer
    sequence index is the one piece not recovered — sequences live in
    the federation, not the overlay, matching the snapshot layer's
    derived-state policy.
    """

    def __init__(self, tree: PhyloTree,
                 storage: StorageConfig | None = None) -> None:
        self.tree = tree
        self.labeling = IntervalLabeling(tree)
        self.storage = storage if storage is not None else StorageConfig()
        self.database: Database | None = None
        if self.storage.durable:
            self.database = Database.open(self.storage.data_dir,
                                          self.storage)
        self.tables: dict[str, Table] = make_overlay_tables(self.database)
        self.clade_aggregates = CladeAggregates(
            tree, self.labeling, self.tables[BINDINGS_TABLE],
        )
        self.fingerprints: dict[str, Fingerprint] = {}
        self.fingerprint_index = FingerprintIndex()
        self.molecules: dict[str, Molecule] = {}
        self.sequence_index = KmerIndex()
        self._statistics: dict[str, TableStatistics] | None = None
        self._known_proteins: set[str] = set()
        self._known_ligands: set[str] = set()
        #: Bumped whenever any table's statistics are (re)collected or
        #: adopted; ``repro stats`` reports it and nothing keys on it.
        self.stats_epoch = 0
        #: Bumped on every row inserted into an overlay table (rows are
        #: never deleted), after the table's indexes and the clade
        #: aggregates have taken the row: what is derived from the
        #: overlay after reading ``v`` may be reused while this still
        #: reads ``v`` — it is the freshness stamp of every cached
        #: answer. Like the tables, it assumes one writer at a time.
        self.data_version = 0
        self._mutations_since_analyze: dict[str, int] = {
            name: 0 for name in self.tables
        }
        for name, table in self.tables.items():
            table.add_insert_listener(self._make_mutation_listener(name))
        if self.database is not None:
            # Recovery: replay the committed store into the fresh overlay.
            with get_tracer().span("durable.recover.overlay") as span:
                rows, watermarks = self.database.committed_tables()
                span.set("rows", self.load_rows(rows))
                for name, watermark in watermarks.items():
                    self.tables[name].bump_next_row_id(watermark)

    def load_rows(self, rows: Mapping[str, Iterable[tuple[int, tuple]]],
                  ) -> int:
        """Append already-validated rows to this overlay.

        The one loader behind durable recovery, cluster view builds
        and cluster view deltas: *rows* maps a table name to
        ``(row_id, row)`` pairs in ascending row id, every id above
        the highest its table has issued (:meth:`Table.restore_rows`
        refuses anything else — appending in row-id order is what
        keeps scan, index and aggregate order equal to a live
        overlay's). They flow through ``restore_rows`` (no validation,
        no write-ahead log, the path of a live insert), and each
        protein and ligand row handed in joins the known-id sets and
        the chemistry state. Returns the number of rows loaded.
        """
        loaded = 0
        for name, table in self.tables.items():
            pairs = list(rows.get(name, ()))
            table.restore_rows(pairs)
            loaded += len(pairs)
            for _, row in pairs if name == PROTEINS_TABLE else ():
                self._known_proteins.add(table.value(row, "protein_id"))
            for _, row in pairs if name == LIGANDS_TABLE else ():
                self._register_ligand(table.value(row, "ligand_id"),
                                      table.value(row, "smiles"))
        return loaded

    def _register_ligand(self, ligand_id: str, smiles: str,
                         fingerprint: Fingerprint | None = None) -> None:
        """Derive one ligand's chemistry state (parsed molecule,
        fingerprint, similarity-index entry) from its SMILES."""
        molecule = parse_smiles(smiles, name=ligand_id)
        if fingerprint is None:
            fingerprint = circular_fingerprint(molecule)
        self.fingerprints[ligand_id] = fingerprint
        self.fingerprint_index.add(ligand_id, fingerprint)
        self.molecules[ligand_id] = molecule
        self._known_ligands.add(ligand_id)

    def close(self) -> None:
        """Flush and release the durable store (no-op in-memory)."""
        if self.database is not None:
            self.database.close()

    # -- population ------------------------------------------------------------

    def add_protein(self, protein_id: str,
                    organism: str | None = None,
                    family: str | None = None,
                    ec_number: str | None = None,
                    resolution: float | None = None,
                    sequence: str | None = None) -> int:
        """Attach one protein record to its tree leaf.

        When *sequence* is given, it also enters the k-mer index so the
        DrugTree can answer "which proteins resemble this sequence?".
        """
        if protein_id in self._known_proteins:
            raise QueryError(f"protein {protein_id!r} already added")
        leaf_pre = self.labeling.leaf_position(protein_id)
        row_id = self.tables[PROTEINS_TABLE].insert({
            "protein_id": protein_id,
            "organism": organism,
            "family": family,
            "ec_number": ec_number,
            "resolution": resolution,
            "leaf_pre": leaf_pre,
        })
        if sequence:
            self.sequence_index.add(
                ProteinSequence(protein_id, sequence)
            )
        self._known_proteins.add(protein_id)
        return row_id

    def search_similar_proteins(self, residues: str,
                                top_k: int = 5) -> list[SearchHit]:
        """K-mer + local-alignment search over the stored sequences."""
        if len(self.sequence_index) == 0:
            raise QueryError(
                "no sequences stored; integrate with sequences or pass "
                "them to add_protein"
            )
        query = ProteinSequence("query", residues)
        return self.sequence_index.search(query, top_k=top_k)

    def add_ligand(self, ligand_id: str, smiles: str,
                   descriptors: dict[str, Any],
                   fingerprint: Fingerprint | None = None) -> int:
        """Register one compound with its descriptors and fingerprint."""
        if ligand_id in self._known_ligands:
            raise QueryError(f"ligand {ligand_id!r} already added")
        row_id = self.tables[LIGANDS_TABLE].insert({
            "ligand_id": ligand_id,
            "smiles": smiles,
            "molecular_weight": float(descriptors["molecular_weight"]),
            "logp": float(descriptors["logp"]),
            "tpsa": float(descriptors["tpsa"]),
            "hbd": int(descriptors["hbd"]),
            "hba": int(descriptors["hba"]),
            "rotatable_bonds": int(descriptors["rotatable_bonds"]),
            "ring_count": int(descriptors["ring_count"]),
            "drug_like": bool(descriptors.get("is_drug_like", True)),
        })
        self._register_ligand(ligand_id, smiles, fingerprint)
        return row_id

    def add_binding(self, record: BindingRecord) -> int:
        """Attach one binding measurement (protein must be added first)."""
        if record.protein_id not in self._known_proteins:
            raise QueryError(
                f"binding references unknown protein {record.protein_id!r}"
            )
        leaf_pre = self.labeling.leaf_position(record.protein_id)
        return self.tables[BINDINGS_TABLE].insert({
            "ligand_id": record.ligand_id,
            "protein_id": record.protein_id,
            "activity_type": record.activity_type.value,
            "value_nm": record.value_nm,
            "p_affinity": record.p_affinity,
            "potent": record.is_potent,
            "leaf_pre": leaf_pre,
        })

    # -- physical design ---------------------------------------------------------

    def create_default_indexes(self) -> None:
        """The physical design the optimized engine assumes.

        Hash indexes on every join/lookup key, sorted indexes on the
        interval-labeling column and the numeric columns queries range
        over. Idempotent-by-name is not attempted: call once.
        """
        bindings = self.tables[BINDINGS_TABLE]
        bindings.create_index(["leaf_pre"], kind="sorted")
        bindings.create_index(["protein_id"], kind="hash")
        bindings.create_index(["ligand_id"], kind="hash")
        bindings.create_index(["p_affinity"], kind="sorted")
        proteins = self.tables[PROTEINS_TABLE]
        proteins.create_index(["protein_id"], kind="hash")
        proteins.create_index(["leaf_pre"], kind="sorted")
        proteins.create_index(["organism"], kind="hash")
        proteins.create_index(["family"], kind="hash")
        ligands = self.tables[LIGANDS_TABLE]
        ligands.create_index(["ligand_id"], kind="hash")
        ligands.create_index(["molecular_weight"], kind="sorted")
        ligands.create_index(["logp"], kind="sorted")

    def refresh_statistics(self) -> dict[str, TableStatistics]:
        """ANALYZE every overlay table; call after bulk loading."""
        return self.adopt_statistics({
            name: analyze(table) for name, table in self.tables.items()
        })

    def adopt_statistics(self, statistics: Mapping[str, TableStatistics],
                         ) -> dict[str, TableStatistics]:
        """Take *statistics* as every table's current ANALYZE result
        (a cluster view holds a subset of the rows but must cost plans
        like the single-node engine, so it adopts the cluster's)."""
        self._statistics = dict(statistics)
        for name in self.tables:
            self._mutations_since_analyze[name] = 0
        self.stats_epoch += 1
        return self._statistics

    def _analyze_table(self, name: str) -> TableStatistics:
        """Re-ANALYZE one table and reset its staleness counter."""
        stats = analyze(self.tables[name])
        self._statistics[name] = stats
        self._mutations_since_analyze[name] = 0
        self.stats_epoch += 1
        return stats

    def _stale_table_names(self) -> list[str]:
        """Tables whose mutation count since ANALYZE crossed threshold."""
        if self._statistics is None:
            return sorted(self.tables)
        stale = []
        for name in self.tables:
            count = self._mutations_since_analyze.get(name, 0)
            if not count:
                continue
            analyzed = self._statistics.get(name)
            if analyzed is None:
                stale.append(name)
                continue
            threshold = max(STALE_MIN_MUTATIONS,
                            int(STALE_FRACTION * analyzed.row_count))
            if count > threshold:
                stale.append(name)
        return stale

    def stale_tables(self) -> list[str]:
        """Names of tables with stale statistics; updates the gauge."""
        stale = self._stale_table_names()
        get_metrics().gauge("stats.stale_tables").set(len(stale))
        return stale

    @property
    def statistics(self) -> dict[str, TableStatistics]:
        if self._statistics is None:
            return self.refresh_statistics()
        for name in self._stale_table_names():
            self._analyze_table(name)
        return self._statistics

    def _make_mutation_listener(self, name: str):
        def on_mutation(row_id: int, row: tuple) -> None:
            self._mutations_since_analyze[name] = (
                self._mutations_since_analyze.get(name, 0) + 1
            )
            self.data_version += 1
        return on_mutation

    # -- convenience reads ---------------------------------------------------------

    @property
    def leaf_count(self) -> int:
        return self.labeling.leaf_count

    @property
    def protein_count(self) -> int:
        return len(self._known_proteins)

    @property
    def ligand_count(self) -> int:
        return len(self._known_ligands)

    @property
    def binding_count(self) -> int:
        return self.tables[BINDINGS_TABLE].row_count

    def clade_stats(self, node_name: str) -> dict[str, float]:
        """Materialized binding statistics of one named clade."""
        return self.clade_aggregates.stats_for_name(node_name)

    def bindings_for_protein(self, protein_id: str) -> list[dict[str, Any]]:
        table = self.tables[BINDINGS_TABLE]
        index = table.index_on("protein_id")
        if index is not None:
            return [table.get_dict(row_id)
                    for row_id in index.lookup(protein_id)]
        return [
            table.schema.row_as_dict(row)
            for row in table.scan_rows()
            if table.value(row, "protein_id") == protein_id
        ]

    def __repr__(self) -> str:
        return (
            f"DrugTree(leaves={self.leaf_count}, "
            f"proteins={self.protein_count}, ligands={self.ligand_count}, "
            f"bindings={self.binding_count})"
        )

    # -- construction ------------------------------------------------------------

    @classmethod
    def build(cls, tree: PhyloTree,
              proteins: list[dict[str, Any]] | None = None,
              ligands: list[dict[str, Any]] | None = None,
              bindings: list[BindingRecord] | None = None,
              create_indexes: bool = True,
              storage: StorageConfig | None = None) -> "DrugTree":
        """Assemble a DrugTree from in-memory records.

        ``proteins`` entries are keyword dicts for :meth:`add_protein`
        (``protein_id`` required); ``ligands`` entries for
        :meth:`add_ligand` (``ligand_id``, ``smiles``, ``descriptors``).
        """
        drugtree = cls(tree, storage=storage)
        for protein in proteins or []:
            drugtree.add_protein(**protein)
        for ligand in ligands or []:
            drugtree.add_ligand(**ligand)
        for record in bindings or []:
            drugtree.add_binding(record)
        if create_indexes:
            drugtree.create_default_indexes()
        drugtree.refresh_statistics()
        return drugtree
