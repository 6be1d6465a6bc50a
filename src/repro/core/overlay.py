"""The ligand overlay: local tables plus clade-level aggregates.

"DrugTree is a tool that overlays ligand data on a protein-motivated
phylogenetic tree" — this module is that overlay. Integrated records
land in three typed tables (``proteins``, ``ligands``, ``bindings``),
each binding row carrying the *leaf position* of its protein so subtree
predicates become integer ranges (see :mod:`repro.core.labeling`).

:class:`CladeAggregates` is the second "novel mechanism": every tree
node keeps materialized statistics of the bindings under it, maintained
incrementally in O(depth) per binding insert, so clade-aggregate queries
read one precomputed record instead of re-aggregating the overlay.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass
class _CladeState:
    count: int = 0
    total: float = 0.0
    maximum: float | None = None
    potent: int = 0


class CladeAggregates:
    """Per-clade binding statistics, maintained on the ancestor path.

    Subscribes to the ``bindings`` table: every inserted binding updates
    the O(depth) nodes on the path from its protein's leaf to the root.
    Reads are O(1) per clade. The table only appends, so every
    aggregate, ``max`` included, folds exactly.
    """

    def __init__(self, tree: PhyloTree, labeling: IntervalLabeling,
                 bindings: Table) -> None:
        self.tree = tree
        self._paff_pos = bindings.schema.index_of("p_affinity")
        self._potent_pos = bindings.schema.index_of("potent")
        self._leaf_pos = bindings.schema.index_of("leaf_pre")
        self._states: dict[int, _CladeState] = {}
        self._leaf_by_position: dict[int, PhyloNode] = {}
        #: Leaf position -> node ids from the leaf up to the root,
        #: memoised: the tree is fixed for the aggregates' life.
        self._paths: dict[int, tuple[int, ...]] = {}
        self._node_by_name: dict[str, PhyloNode] = {}
        self.maintenance_ops = 0
        for node in tree.preorder():
            if node.name:
                self._node_by_name.setdefault(node.name, node)
        for leaf in tree.leaves():
            position = labeling.leaf_position(leaf.name)
            self._leaf_by_position[position] = leaf
        for row in bindings.scan_rows():
            self._apply(row)
        bindings.add_insert_listener(self._on_insert)

    # -- maintenance ---------------------------------------------------------

    def _path_of(self, row: tuple) -> tuple[int, ...]:
        position = row[self._leaf_pos]
        path = self._paths.get(position)
        if path is None:
            leaf = self._leaf_by_position.get(position)
            if leaf is None:
                raise QueryError(
                    f"binding references unknown leaf position {position}"
                )
            path = self._paths[position] = (
                leaf.node_id, *(node.node_id for node in leaf.ancestors()))
        return path

    def _apply(self, row: tuple) -> None:
        p_affinity = row[self._paff_pos]
        potent = 1 if row[self._potent_pos] else 0
        states = self._states
        for node_id in self._path_of(row):
            state = states.get(node_id)
            if state is None:
                state = states[node_id] = _CladeState()
            state.count += 1
            state.total += p_affinity
            state.potent += potent
            if state.maximum is None or p_affinity > state.maximum:
                state.maximum = p_affinity

    def _on_insert(self, row_id: int, row: tuple) -> None:
        self._apply(row)
        self.maintenance_ops += 1

    # -- reads ---------------------------------------------------------------

    def stats_for(self, node: PhyloNode) -> dict[str, float]:
        """Aggregate statistics of the bindings in *node*'s subtree."""
        state = self._states.get(node.node_id)
        if state is None:
            return {"count": 0.0, "mean": 0.0, "max": 0.0,
                    "potent_fraction": 0.0}
        return {
            "count": float(state.count),
            "mean": state.total / state.count,
            "max": state.maximum,
            "potent_fraction": state.potent / state.count,
        }

    def stats_for_name(self, node_name: str) -> dict[str, float]:
        node = self._node_by_name.get(node_name)
        if node is None:
            raise QueryError(f"no node named {node_name!r}")
        return self.stats_for(node)
