"""analytic_scan — the engine as an analyst uses it.

Closed loop, one client, straight into ``QueryEngine.execute`` with
the semantic cache *off*, so every query plans and scans: the
generator's eight query kinds drawn uniformly (as ASTs) interleaved
with the four E13 scan families (as DTQL text, with a seeded literal so
no two are the same query). ``core.query.executor`` and
``storage.columnar`` dominate, parse + plan are a few percent, and the
~22k-row bindings table is far larger than any cache the program
keeps — the mirror image of ``tap_mix``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core import EngineConfig, QueryEngine
from repro.errors import DrugTreeError
from repro.workloads import DatasetConfig, QueryGenerator, build_dataset

from ledger import harness, layers
from ledger.metrics import ANALYTIC_KINDS, GENERATOR_KINDS

NAME = "analytic_scan"
WHY = ("twelve query kinds straight into the engine with the semantic "
       "cache off over ~22k bindings: executor and column store "
       "dominate, parse/plan are noise, nothing fits a program cache")

WORLD = DatasetConfig(n_leaves=180, n_ligands=230, seed=1102)
TINY_WORLD = DatasetConfig(n_leaves=24, n_ligands=30, seed=1102)
QUERIES_PER_BUDGET_S = 112
#: Queries per kind whose rows are kept and compared with the row
#: engine (its scans are ~10x slower, so not every query can be).
ORACLE_PER_KIND = 4

#: The E13 scan families, each with one seeded literal.
SCAN_TEMPLATES = {
    "scan_agg": (
        "SELECT count(*), mean(p_affinity), max(p_affinity) "
        "FROM bindings WHERE p_affinity >= {t}"),
    "group_by": (
        "SELECT activity_type, count(*), mean(p_affinity) "
        "FROM bindings WHERE p_affinity >= {t} "
        "GROUP BY activity_type ORDER BY activity_type"),
    "filter_project": (
        "SELECT ligand_id, p_affinity FROM bindings "
        "WHERE p_affinity >= {t} AND potent = true"),
    "scan_topk": (
        "SELECT ligand_id, p_affinity FROM bindings "
        "WHERE p_affinity <= {t} ORDER BY p_affinity DESC LIMIT 50"),
}


@dataclass
class World:
    drugtree: object
    engine: QueryEngine
    #: (kind, Query AST or DTQL text)
    queries: list[tuple[str, object]]
    #: indexes into *queries* whose rows the oracle compares
    oracle: frozenset[int]

    @property
    def inputs(self) -> list:
        return self.queries


@dataclass
class Out:
    kinds: list[str] = field(default_factory=list)
    wall_ns: list[int] = field(default_factory=list)
    kept_rows: dict[int, list] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def setup(seed: int, size: harness.Size, work) -> World:
    dataset = build_dataset(TINY_WORLD if size.tiny else WORLD)
    drugtree = dataset.drugtree()
    engine = QueryEngine(drugtree, EngineConfig(use_semantic_cache=False))
    generator = QueryGenerator(dataset.family, dataset.ligands, seed=seed)
    literals = random.Random(seed)
    count = max(len(ANALYTIC_KINDS),
                int(QUERIES_PER_BUDGET_S * size.seconds))
    queries = []
    for index in range(count):
        kind = ANALYTIC_KINDS[index % len(ANALYTIC_KINDS)]
        if kind in GENERATOR_KINDS:
            queries.append((kind, generator.draw(kind)))
        else:
            queries.append((kind, SCAN_TEMPLATES[kind].format(
                t=round(literals.uniform(5.0, 8.5), 2))))
    # The last ORACLE_PER_KIND rounds of the cycle: past warm-up, and
    # fixed by position so the kept set does not depend on timing.
    first = max(0, count - ORACLE_PER_KIND * len(ANALYTIC_KINDS))
    return World(drugtree, engine, queries,
                 frozenset(range(first, count)))


def run(world: World, watch: harness.Stopwatch) -> Out:
    out = Out()
    execute = world.engine.execute
    for index, (kind, query) in enumerate(world.queries):
        out.attempted += 1
        try:
            result, nanos = watch.timed(execute, query)
        except DrugTreeError as error:
            out.failed += 1
            out.problems.append(f"{kind} #{index}: {error}")
            continue
        out.kinds.append(kind)
        out.wall_ns.append(nanos)
        if index in world.oracle:
            out.kept_rows[index] = result.rows
    return out


def end_to_end(world: World, out: Out) -> dict[str, dict]:
    timed = out.wall_ns[harness.warmup_count(len(out.wall_ns)):]
    rows = harness.wall_rows(timed)
    rows.update(harness.outcome_rows(out.attempted, out.failed))
    return rows


def check(world: World, out: Out) -> list[str]:
    """Kept results are bit-identical to the row-at-a-time engine's."""
    problems = list(out.problems)
    row_engine = QueryEngine(world.drugtree, EngineConfig(
        use_semantic_cache=False, execution_mode="row"))
    for index, rows in sorted(out.kept_rows.items()):
        kind, query = world.queries[index]
        if row_engine.execute(query).rows != rows:
            problems.append(f"{kind} #{index} differs from the row "
                            f"engine: {query}")
    return problems


def per_layer(world: World, out: Out, tracer, tallies) -> dict[str, float]:
    rows = layers.setup_rows(tracer.setup_spans)
    rows.update(layers.query_rows(tracer, tallies))
    by_kind: dict[str, list[int]] = {}
    for kind, nanos in zip(out.kinds, out.wall_ns):
        by_kind.setdefault(kind, []).append(nanos)
    for kind, samples in by_kind.items():
        rows[f"core.query.executor.kind.{kind}.p50_us"] = (
            harness.percentile(sorted(samples), 0.5) / 1e3)
    return rows
