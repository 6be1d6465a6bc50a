"""cluster_rw — quorum reads and view rebuilds under interleaved writes.

Closed loop, one client, no chaos. A small world is sharded into a
5-node cluster (4 clade partitions, RF 3, R = W = 2) and read through
``ClusterEngine`` with the semantic cache off, cycling
``subtree_filter`` / ``clade_agg`` / ``property_range`` / ``topk`` with
a 1.5 s virtual deadline; one ``insert("bindings", …)`` goes in before
every 16th read. Router quorum reads and the engine's view
materialization do the work, and because any write invalidates every
cached view, the reads after a write rebuild theirs — the wall-clock
cost ROADMAP item 5 asks to see.

The world is smaller than the issue's 60-leaf sizing lead, and writes
half as frequent as its every-8th, so that the run holds well over 1000
measured reads inside its budget: with four read kinds times fresh or
stale views the latencies spread over two decades, and percentiles of
such a spread need the samples to hold still from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.cluster import ClusterConfig, ClusterEngine
from repro.core import EngineConfig, QueryEngine
from repro.errors import DrugTreeError
from repro.workloads import DatasetConfig, QueryGenerator, build_dataset

from ledger import harness, layers

NAME = "cluster_rw"
WHY = ("four query kinds through a 5-node RF-3 cluster with an insert "
       "before every 16th read: router quorum reads and view rebuilds "
       "dominate, every write invalidates every cached view")

WORLD = DatasetConfig(n_leaves=32, n_ligands=64, seed=1104)
TINY_WORLD = DatasetConfig(n_leaves=12, n_ligands=16, seed=1104)
CLUSTER = ClusterConfig(nodes=5, partitions=4, replication_factor=3,
                        read_quorum=2, write_quorum=2)
READ_KINDS = ("subtree_filter", "clade_agg", "property_range", "topk")
READS_PER_BUDGET_S = 176
WRITE_EVERY = 16
READ_DEADLINE_S = 1.5
ENGINE = EngineConfig(use_semantic_cache=False)


@dataclass
class World:
    dataset: object
    cluster: ClusterEngine
    #: ("read", kind, Query) | ("write", "bindings", values)
    ops: list[tuple]

    @property
    def inputs(self) -> list:
        return self.ops


@dataclass
class Out:
    read_ns: list[int] = field(default_factory=list)
    read_virtual_s: list[float] = field(default_factory=list)
    read_rows: list[list] = field(default_factory=list)
    write_ns: list[int] = field(default_factory=list)
    shards_contacted: int = 0
    shards_total: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def setup(seed: int, size: harness.Size, work) -> World:
    dataset = build_dataset(TINY_WORLD if size.tiny else WORLD)
    cluster = ClusterEngine.from_drugtree(dataset.drugtree(), CLUSTER,
                                          config=ENGINE)
    generator = QueryGenerator(dataset.family, dataset.ligands, seed=seed)
    rng = random.Random(seed)
    proteins = dataset.family.protein_ids
    ligands = [ligand.ligand_id for ligand in dataset.ligands]
    ops: list[tuple] = []
    reads = max(WRITE_EVERY, int(READS_PER_BUDGET_S * size.seconds))
    for index in range(reads):
        if index % WRITE_EVERY == WRITE_EVERY - 1:
            p_affinity = round(rng.uniform(3.0, 10.0), 3)
            ops.append(("write", "bindings", {
                "ligand_id": rng.choice(ligands),
                "protein_id": rng.choice(proteins),
                "activity_type": "Ki",
                "value_nm": round(10.0 ** (9 - p_affinity), 4),
                "p_affinity": p_affinity,
                "potent": p_affinity >= 6.0,
            }))
        kind = READ_KINDS[index % len(READ_KINDS)]
        ops.append(("read", kind, generator.draw(kind)))
    return World(dataset, cluster, ops)


def run(world: World, watch: harness.Stopwatch) -> Out:
    out = Out()
    cluster, clock = world.cluster, world.cluster.clock
    for op, what, payload in world.ops:
        out.attempted += 1
        before = clock.now()
        try:
            if op == "write":
                _, nanos = watch.timed(cluster.insert, what, payload)
                out.write_ns.append(nanos)
                continue
            result, nanos = watch.timed(cluster.execute, payload,
                                          READ_DEADLINE_S)
        except DrugTreeError as error:
            out.failed += 1
            out.problems.append(f"{op} {what}: {error}")
            continue
        out.read_ns.append(nanos)
        out.read_virtual_s.append(clock.now() - before)
        out.read_rows.append(result.rows)
        out.shards_contacted += cluster.last_route["shards_contacted"]
        out.shards_total += cluster.last_route["shards_total"]
    return out


def end_to_end(world: World, out: Out) -> dict[str, dict]:
    skip_reads = harness.warmup_count(len(out.read_ns))
    read_ns = out.read_ns[skip_reads:]
    virtual_s = out.read_virtual_s[skip_reads:]
    write_ns = out.write_ns[harness.warmup_count(len(out.write_ns)):]
    rows = harness.wall_rows(read_ns + write_ns, read_ns)
    rows.update(harness.outcome_rows(out.attempted, out.failed))
    ordered = sorted(virtual_s)
    fraction = harness.tail_fraction(len(ordered))
    rows["virtual_p99_s"] = harness.row(
        harness.percentile(ordered, fraction), n=len(ordered),
        pct=fraction)
    return rows


def check(world: World, out: Out) -> list[str]:
    """Every read equals a single-node engine fed the same inserts."""
    problems = list(out.problems)
    mirror_tree, _ = world.dataset.integrate()
    mirror = QueryEngine(mirror_tree, ENGINE)
    bindings = mirror_tree.tables["bindings"]
    answers = iter(out.read_rows)
    for index, (op, what, payload) in enumerate(world.ops):
        if op == "write":
            bindings.insert({
                **payload, "leaf_pre": mirror_tree.labeling.leaf_position(
                    payload["protein_id"])})
            continue
        if not harness.same_rows(next(answers),
                                 mirror.execute(payload).rows,
                                 harness.order_column(payload)):
            problems.append(f"op {index}: {what} read differs from the "
                            "single-node mirror")
    return problems


def per_layer(world: World, out: Out, tracer, tallies) -> dict[str, float]:
    executes = tracer.calls.get("cluster.engine.execute", 0)
    stats = world.cluster.router.stats
    rows = layers.setup_rows(tracer.setup_spans)
    rows.update(layers.query_rows(tracer, tallies))
    rows.update({
        "cluster.partitioning.shards_contacted_share": layers.ratio(
            out.shards_contacted, out.shards_total),
        "cluster.router.read_us":
            tracer.self_us_per("cluster.router.read_partitions"),
        "cluster.router.write_us":
            tracer.self_us_per("cluster.router.write"),
        "cluster.router.virtual_ms_per_read": layers.ratio(
            sum(out.read_virtual_s) * 1e3, len(out.read_virtual_s)),
        "cluster.router.read_repairs": stats.read_repairs,
        # Everything ClusterEngine.execute does besides the quorum read
        # and the delegated single-node execute: materializing the view
        # (table inserts, ligand chemistry, index builds) and routing.
        "cluster.engine.view_build_us": layers.ratio(
            (tracer.total_ns.get("cluster.engine.execute", 0)
             - tracer.total_ns.get("cluster.router.read_partitions", 0)
             - tracer.total_ns.get(layers.EXECUTE, 0)) / 1e3, executes),
        "cluster.engine.view_rebuild_share": layers.ratio(
            tracer.calls.get("cluster.router.read_partitions", 0),
            executes),
    })
    return rows
