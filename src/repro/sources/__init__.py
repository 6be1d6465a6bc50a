"""Simulated heterogeneous remote data sources.

Stands in for the live services the paper's system federated (PDB,
ligand activity databases, annotation services): every call costs
virtual latency, results are paged, and services can rate-limit or fail.
See DESIGN.md for why this substitution preserves the paper's behaviour.
"""

from repro.sources.activity import (
    KIND_ACTIVITY_BY_LIGAND,
    KIND_ACTIVITY_BY_PROTEIN,
    KIND_COMPOUND,
    CompoundEntry,
    LigandActivitySource,
)
from repro.sources.annotation import (
    KIND_ANNOTATION,
    KIND_PROTEINS_BY_FAMILY,
    AnnotationEntry,
    AnnotationSource,
)
from repro.sources.base import (
    DataSource,
    LatencyModel,
    SourceStats,
    TableBackedSource,
)
from repro.faults import (
    ErrorBurst,
    FaultSchedule,
    Flapping,
    LatencySpike,
    Outage,
)
from repro.sources.chaos import ChaosSource, wrap_registry
from repro.sources.clock import (
    ParallelRegion,
    SimulatedClock,
    Stopwatch,
    TaskTimeline,
    TokenBucket,
)
from repro.sources.protein import (
    KIND_PROTEIN,
    KIND_PROTEINS_BY_ORGANISM,
    ProteinEntry,
    ProteinStructureSource,
)
from repro.sources.registry import SourceRegistry
from repro.sources.resilience import (
    STATUS_FRESH,
    STATUS_MISSING,
    STATUS_PARTIAL,
    BreakerBoard,
    BreakerConfig,
    CircuitBreaker,
    Deadline,
    FetchOutcome,
)
from repro.sources.scheduler import FetchScheduler, SchedulerStats

__all__ = [
    "KIND_ACTIVITY_BY_LIGAND",
    "KIND_ACTIVITY_BY_PROTEIN",
    "KIND_ANNOTATION",
    "KIND_COMPOUND",
    "KIND_PROTEIN",
    "KIND_PROTEINS_BY_FAMILY",
    "KIND_PROTEINS_BY_ORGANISM",
    "STATUS_FRESH",
    "STATUS_MISSING",
    "STATUS_PARTIAL",
    "AnnotationEntry",
    "AnnotationSource",
    "BreakerBoard",
    "BreakerConfig",
    "ChaosSource",
    "CircuitBreaker",
    "CompoundEntry",
    "DataSource",
    "Deadline",
    "ErrorBurst",
    "FaultSchedule",
    "FetchOutcome",
    "FetchScheduler",
    "Flapping",
    "LatencyModel",
    "LatencySpike",
    "LigandActivitySource",
    "Outage",
    "ParallelRegion",
    "ProteinEntry",
    "ProteinStructureSource",
    "SchedulerStats",
    "SimulatedClock",
    "SourceRegistry",
    "SourceStats",
    "Stopwatch",
    "TableBackedSource",
    "TaskTimeline",
    "TokenBucket",
    "wrap_registry",
]
