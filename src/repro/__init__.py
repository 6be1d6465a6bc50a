"""DrugTree reproduction: mobile interaction and query optimization in a
protein-ligand data analysis system (SIGMOD 2013).

The package layers four subsystems:

* :mod:`repro.bio` — phylogenetics substrate (alignment, distances,
  neighbor-joining, simulation);
* :mod:`repro.chem` — cheminformatics substrate (SMILES, descriptors,
  fingerprints, affinities);
* :mod:`repro.sources` / :mod:`repro.storage` — the simulated remote
  federation and the embedded local store;
* :mod:`repro.core` — DrugTree itself: integration, interval labeling,
  clade materialization, the cost-based query engine, the semantic
  cache, and the naive baseline;
* :mod:`repro.mobile` — the simulated mobile client/server;
* :mod:`repro.analysis` — the DTQL semantic analyzer (typed catalog,
  contradiction short-circuit) and the repo invariant linter;
* :mod:`repro.obs` — tracing, metrics, and EXPLAIN ANALYZE support;
* :mod:`repro.workloads` — synthetic datasets and the benchmark harness.

Quickstart::

    from repro import build_dataset, DatasetConfig, QueryEngine

    dataset = build_dataset(DatasetConfig(n_leaves=40, n_ligands=100))
    drugtree, report = dataset.integrate()
    engine = QueryEngine(drugtree)
    result = engine.execute(
        "SELECT count(*), mean(p_affinity) IN SUBTREE 'clade_0001'"
    )
    print(result.rows)
"""

from repro.bio import (
    DistanceMatrix,
    PhyloNode,
    PhyloTree,
    ProteinSequence,
    neighbor_joining,
    parse_newick,
)
from repro.chem import (
    ActivityType,
    BindingRecord,
    Ligand,
    Molecule,
    parse_smiles,
    tanimoto,
)
from repro.core import (
    DrugTree,
    EngineConfig,
    IntegrationPipeline,
    NaiveEngine,
    Query,
    QueryEngine,
    parse_query,
)
from repro.errors import DrugTreeError
from repro.mobile import (
    DrugTreeServer,
    MobileClient,
    NetworkLink,
    NetworkProfile,
    ServerConfig,
    get_profile,
)
from repro.obs import MetricsRegistry, Tracer
from repro.sources import SimulatedClock, SourceRegistry
from repro.workloads import (
    Dataset,
    DatasetConfig,
    QueryGenerator,
    build_dataset,
)

__version__ = "1.0.0"

__all__ = [
    "ActivityType",
    "BindingRecord",
    "Dataset",
    "DatasetConfig",
    "DistanceMatrix",
    "DrugTree",
    "DrugTreeError",
    "DrugTreeServer",
    "EngineConfig",
    "IntegrationPipeline",
    "Ligand",
    "MetricsRegistry",
    "MobileClient",
    "Molecule",
    "NaiveEngine",
    "NetworkLink",
    "NetworkProfile",
    "PhyloNode",
    "PhyloTree",
    "ProteinSequence",
    "Query",
    "QueryEngine",
    "QueryGenerator",
    "ServerConfig",
    "SimulatedClock",
    "SourceRegistry",
    "Tracer",
    "__version__",
    "build_dataset",
    "get_profile",
    "neighbor_joining",
    "parse_newick",
    "parse_query",
    "parse_smiles",
    "tanimoto",
]
