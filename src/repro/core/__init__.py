"""The paper's contribution: DrugTree and its query optimization.

Public surface:

* :class:`DrugTree` — the tree + ligand overlay;
* :class:`QueryEngine` / :class:`EngineConfig` — the optimized engine;
* :class:`NaiveEngine` — the unoptimized federated baseline;
* :class:`IntegrationPipeline` — multi-source integration;
* :func:`parse_query` and the query AST types.
"""

from repro.core.baseline import NaiveEngine, NaiveResult
from repro.core.drugtree import DrugTree
from repro.core.integrate import (
    IntegrationPipeline,
    IntegrationReport,
    ligand_row,
    protein_row,
)
from repro.core.labeling import IntervalLabeling, NodeLabel
from repro.core.overlay import (
    BINDINGS_TABLE,
    JOIN_KEYS,
    LIGANDS_TABLE,
    PROTEINS_TABLE,
    CladeAggregates,
    make_overlay_tables,
)
from repro.core.query import (
    AggregateSpec,
    Comparison,
    EngineConfig,
    OrderBy,
    Query,
    QueryEngine,
    QueryResult,
    SimilarityFilter,
    SubstructureFilter,
    SubtreeFilter,
    parse_query,
)

__all__ = [
    "BINDINGS_TABLE",
    "JOIN_KEYS",
    "LIGANDS_TABLE",
    "PROTEINS_TABLE",
    "AggregateSpec",
    "CladeAggregates",
    "Comparison",
    "DrugTree",
    "EngineConfig",
    "IntegrationPipeline",
    "IntegrationReport",
    "IntervalLabeling",
    "NaiveEngine",
    "NaiveResult",
    "NodeLabel",
    "OrderBy",
    "Query",
    "QueryEngine",
    "QueryResult",
    "SimilarityFilter",
    "SubstructureFilter",
    "SubtreeFilter",
    "ligand_row",
    "make_overlay_tables",
    "parse_query",
    "protein_row",
]
