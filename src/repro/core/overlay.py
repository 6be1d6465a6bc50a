"""The ligand overlay: local tables plus clade-level aggregates.

"DrugTree is a tool that overlays ligand data on a protein-motivated
phylogenetic tree" — this module is that overlay. Integrated records
land in three typed tables (``proteins``, ``ligands``, ``bindings``),
each binding row carrying the *leaf position* of its protein so subtree
predicates become integer ranges (see :mod:`repro.core.labeling`).

:class:`CladeAggregates` is the second "novel mechanism": every tree
node keeps materialized statistics of the bindings under it, maintained
incrementally on every appended batch of bindings, so clade-aggregate
queries read one precomputed record instead of re-aggregating the
overlay.
"""

from __future__ import annotations

from repro.bio.tree import PhyloNode, PhyloTree
from repro.core.labeling import IntervalLabeling
from repro.errors import QueryError
from repro.storage import (
    DurableTableAdapter,
    Schema,
    Table,
    bool_column,
    float_column,
    int_column,
    string_column,
)

PROTEINS_TABLE = "proteins"
LIGANDS_TABLE = "ligands"
BINDINGS_TABLE = "bindings"


def proteins_schema() -> Schema:
    return Schema([
        string_column("protein_id"),
        string_column("organism", nullable=True),
        string_column("family", nullable=True),
        string_column("ec_number", nullable=True),
        float_column("resolution", nullable=True),
        int_column("leaf_pre"),
    ])


def ligands_schema() -> Schema:
    return Schema([
        string_column("ligand_id"),
        string_column("smiles"),
        float_column("molecular_weight"),
        float_column("logp"),
        float_column("tpsa"),
        int_column("hbd"),
        int_column("hba"),
        int_column("rotatable_bonds"),
        int_column("ring_count"),
        bool_column("drug_like"),
    ])


def bindings_schema() -> Schema:
    return Schema([
        string_column("ligand_id"),
        string_column("protein_id"),
        string_column("activity_type"),
        float_column("value_nm"),
        float_column("p_affinity"),
        bool_column("potent"),
        int_column("leaf_pre"),
    ])


def make_overlay_tables(database=None) -> dict[str, Table]:
    """Fresh, empty overlay tables keyed by canonical name.

    With a :class:`~repro.storage.durable.db.Database`, each table gets
    a durable adapter so its mutations flow through the shared WAL.
    """
    def build(name: str, schema: Schema) -> Table:
        durable = (DurableTableAdapter(database, name)
                   if database is not None else None)
        return Table(name, schema, durable=durable)

    return {
        PROTEINS_TABLE: build(PROTEINS_TABLE, proteins_schema()),
        LIGANDS_TABLE: build(LIGANDS_TABLE, ligands_schema()),
        BINDINGS_TABLE: build(BINDINGS_TABLE, bindings_schema()),
    }


#: Join keys between overlay tables, as (left_table, right_table): column.
JOIN_KEYS: dict[tuple[str, str], str] = {
    (BINDINGS_TABLE, PROTEINS_TABLE): "protein_id",
    (PROTEINS_TABLE, BINDINGS_TABLE): "protein_id",
    (BINDINGS_TABLE, LIGANDS_TABLE): "ligand_id",
    (LIGANDS_TABLE, BINDINGS_TABLE): "ligand_id",
}


class CladeAggregates:
    """Per-clade binding statistics, maintained on the ancestor path.

    Subscribes to the ``bindings`` table: every appended batch of
    bindings updates the nodes on the paths from their proteins' leaves
    to the root. Reads are O(1) per clade. The table only appends, so
    every aggregate, ``max`` included, folds exactly.
    """

    def __init__(self, tree: PhyloTree, labeling: IntervalLabeling,
                 bindings: Table) -> None:
        self.tree = tree
        self._paff_pos = bindings.schema.index_of("p_affinity")
        self._potent_pos = bindings.schema.index_of("potent")
        self._leaf_pos = bindings.schema.index_of("leaf_pre")
        #: Each node's statistics sit at its slot of four lists.
        self._slots: dict[int, int] = {}
        self._node_by_name: dict[str, PhyloNode] = {}
        for node in tree.preorder():
            self._slots[node.node_id] = len(self._slots)
            if node.name:
                self._node_by_name.setdefault(node.name, node)
        self._count = [0] * len(self._slots)
        self._total = [0.0] * len(self._slots)
        self._maximum: list[float | None] = [None] * len(self._slots)
        self._potent = [0] * len(self._slots)
        #: Leaf position -> slots from the leaf up to the root.
        self._paths = {
            labeling.leaf_position(leaf.name): tuple(
                self._slots[node.node_id]
                for node in (leaf, *leaf.ancestors()))
            for leaf in tree.leaves()}
        self.maintenance_ops = 0  # rows folded in, backfill included
        self._fold(list(bindings.scan()))
        bindings.add_insert_listener(self._fold)

    # -- maintenance ---------------------------------------------------------

    def _fold(self, pairs: list[tuple[int, tuple]]) -> None:
        """Fold a batch of binding rows into every node on their paths.

        ``count``, ``potent`` and ``max`` are exact (``max`` for any
        affinity but NaN, which no binding record carries), so they
        fold per distinct leaf first and then walk each leaf's path
        once. The float ``total`` keeps row-order addition at every
        node, as one insert at a time would: a per-leaf partial sum
        rounds differently. So each row adds its value up its own path.
        Every leaf is resolved before any statistic changes.
        """
        paff, potent_pos, leaf_pos = (self._paff_pos, self._potent_pos,
                                      self._leaf_pos)
        paths = self._paths
        leaves: dict[int, list] = {}
        for _, row in pairs:
            value, leaf = row[paff], row[leaf_pos]
            kept = leaves.get(leaf)
            if kept is None:
                if leaf not in paths:
                    raise QueryError(
                        f"binding references unknown leaf position {leaf}")
                kept = leaves[leaf] = [paths[leaf], 0, 0, value]
            kept[1] += 1
            if row[potent_pos]:
                kept[2] += 1
            if value > kept[3]:
                kept[3] = value
        count, potent, maximum = self._count, self._potent, self._maximum
        for path, rows, potent_rows, highest in leaves.values():
            for slot in path:
                count[slot] += rows
                potent[slot] += potent_rows
                if maximum[slot] is None or highest > maximum[slot]:
                    maximum[slot] = highest
        total = self._total
        for _, row in pairs:
            value = row[paff]
            for slot in paths[row[leaf_pos]]:
                total[slot] += value
        self.maintenance_ops += len(pairs)

    # -- reads ---------------------------------------------------------------

    def stats_for(self, node: PhyloNode) -> dict[str, float]:
        """Aggregate statistics of the bindings in *node*'s subtree."""
        slot = self._slots.get(node.node_id)
        count = 0 if slot is None else self._count[slot]
        if not count:
            return {"count": 0.0, "mean": 0.0, "max": 0.0,
                    "potent_fraction": 0.0}
        return {
            "count": float(count),
            "mean": self._total[slot] / count,
            "max": self._maximum[slot],
            "potent_fraction": self._potent[slot] / count,
        }

    def stats_for_name(self, node_name: str) -> dict[str, float]:
        node = self._node_by_name.get(node_name)
        if node is None:
            raise QueryError(f"no node named {node_name!r}")
        return self.stats_for(node)
