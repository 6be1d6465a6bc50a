"""Query model, optimizer, executor, and semantic cache."""

from repro.core.query.ast import (
    AGGREGATE_FUNCS,
    COMPARISON_OPS,
    AggregateSpec,
    Comparison,
    HavingCondition,
    OrderBy,
    Query,
    SimilarityFilter,
    SubstructureFilter,
    SubtreeFilter,
)
from repro.core.query.adaptive import EngineChoice, choose_engine
from repro.core.query.cache import CacheHit, SemanticCache
from repro.core.query.cards import CardinalityEstimator
from repro.core.query.executor import EngineConfig, QueryEngine, QueryResult
from repro.core.query.parser import parse_query
from repro.core.query.planner import Planner, PlanReport
from repro.core.query.predicates import (
    compile_columns,
    compile_comparison,
    compile_residual,
)
from repro.core.query.vectorized import Batch, VectorizedLowering

__all__ = [
    "AGGREGATE_FUNCS",
    "COMPARISON_OPS",
    "AggregateSpec",
    "Batch",
    "CacheHit",
    "CardinalityEstimator",
    "Comparison",
    "EngineChoice",
    "EngineConfig",
    "HavingCondition",
    "OrderBy",
    "PlanReport",
    "Planner",
    "Query",
    "QueryEngine",
    "QueryResult",
    "SemanticCache",
    "SimilarityFilter",
    "SubstructureFilter",
    "SubtreeFilter",
    "VectorizedLowering",
    "choose_engine",
    "compile_columns",
    "compile_comparison",
    "compile_residual",
    "parse_query",
]
