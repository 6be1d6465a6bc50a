"""Synthetic datasets, query workloads, and the experiment harness."""

from repro.workloads.datasets import (
    Dataset,
    DatasetConfig,
    build_dataset,
    generate_bindings,
)
from repro.workloads.export import export_dataset
from repro.workloads.families import (
    FAMILY_POOL,
    ORGANISM_POOL,
    ProteinFamily,
    make_family,
    name_internal_clades,
)
from repro.workloads.harness import (
    Measurement,
    TextTable,
    mean,
    percentile,
    speedup,
    time_wall,
)
from repro.workloads.loadgen import (
    LoadConfig,
    TenantLoad,
    ZipfSampler,
    generate_load,
)
from repro.workloads.queries import (
    DEFAULT_MIX,
    QueryGenerator,
    WorkloadConfig,
)

__all__ = [
    "DEFAULT_MIX",
    "FAMILY_POOL",
    "ORGANISM_POOL",
    "Dataset",
    "DatasetConfig",
    "LoadConfig",
    "Measurement",
    "ProteinFamily",
    "QueryGenerator",
    "TenantLoad",
    "TextTable",
    "WorkloadConfig",
    "ZipfSampler",
    "build_dataset",
    "export_dataset",
    "generate_load",
    "generate_bindings",
    "make_family",
    "mean",
    "name_internal_clades",
    "percentile",
    "speedup",
    "time_wall",
]
