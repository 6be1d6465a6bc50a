"""durable_rw — writes beside reads on the durable storage layer.

Closed loop, one client. A small world is integrated with
``StorageConfig(durable=True)`` — default ``fsync="batch"``, default
flush and compaction thresholds, the same on both sides of any
comparison — and then binding rows stream in through 100-row
``database.batch()`` groups, two reads after each batch (a
``ligand_id`` point lookup and a clade aggregate) through an engine
with the semantic cache off. After the last batch the data directory
is copied *before* ``close()`` (the crash image: what a killed process
would leave, every acknowledged batch already fsynced), the store is
closed, and reopening the crash image is timed.

WAL, memtable flush, compaction and recovery do the work, and the same
``Table`` / ``ColumnStore`` listeners that ``analytic_scan`` only reads
are written here tens of thousands of times, so a scan-side gain paid
for on the insert path shows.
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path

from repro.core import DrugTree, EngineConfig, QueryEngine
from repro.errors import DrugTreeError
from repro.obs import get_metrics
from repro.storage.durable import StorageConfig
from repro.workloads import DatasetConfig, build_dataset

from ledger import harness, layers

NAME = "durable_rw"
WHY = ("100-row durable batches with a point lookup and a clade "
       "aggregate after each, then crash-image recovery: WAL, flush, "
       "compaction and the insert side of the table listeners dominate")

WORLD = DatasetConfig(n_leaves=24, n_ligands=40, seed=1103)
TINY_WORLD = DatasetConfig(n_leaves=12, n_ligands=16, seed=1103)
BATCH_ROWS = 100
ROWS_PER_BUDGET_S = 4500
RECOVERIES = 2
#: Reads repeated on the reopened store and compared with pre-close.
PROBES = 20
_ACTIVITY_TYPES = ("Ki", "Kd", "IC50", "EC50")
_TABLES = ("proteins", "ligands", "bindings")


def _encoded(values) -> int:
    """User bytes of one row: its compact JSON encoding."""
    return len(json.dumps(list(values), separators=(",", ":")))


def _reopen(tree, data_dir: Path) -> DrugTree:
    reopened = DrugTree(tree, storage=StorageConfig(
        durable=True, data_dir=str(data_dir)))
    reopened.create_default_indexes()
    return reopened


def _insert_batch(database, table, rows: list[dict]) -> None:
    with database.batch():
        for values in rows:
            table.insert(values)


@dataclass
class World:
    dataset: object
    drugtree: DrugTree
    engine: QueryEngine
    data_dir: Path
    work: Path
    batches: list[list[dict]]
    #: (point lookup, clade aggregate) DTQL after each batch
    reads: list[tuple[str, str]]

    @property
    def inputs(self) -> list:
        return [self.batches, self.reads]


@dataclass
class Out:
    batch_ns: list[int] = field(default_factory=list)
    read_ns: list[int] = field(default_factory=list)
    timed_from: int = 0          # first measured cycle
    user_bytes: int = 0          # encoded rows of the measured cycles
    written_bytes: int = 0       # bytes written during them
    counters: dict = field(default_factory=dict)   # deltas, all cycles
    data_bytes: int = 0          # data directory just before close
    live_bytes: int = 0          # encoded rows alive in the store
    recover_s: list[float] = field(default_factory=list)
    probes: list[tuple[str, list]] = field(default_factory=list)
    crash_copy: DrugTree | None = None
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def setup(seed: int, size: harness.Size, work) -> World:
    work = Path(work)
    work.mkdir(parents=True, exist_ok=True)
    data_dir = work / "db"
    dataset = build_dataset(TINY_WORLD if size.tiny else WORLD)
    drugtree, _ = dataset.integrate(storage=StorageConfig(
        durable=True, data_dir=str(data_dir)))
    engine = QueryEngine(drugtree, EngineConfig(use_semantic_cache=False))
    rng = random.Random(seed)
    proteins = dataset.family.protein_ids
    clades = dataset.family.clade_names
    ligands = [ligand.ligand_id for ligand in dataset.ligands]
    leaf_pre = {protein: drugtree.labeling.leaf_position(protein)
                for protein in proteins}
    n_batches = max(3, int(ROWS_PER_BUDGET_S * size.seconds) // BATCH_ROWS)
    batches, reads = [], []
    for _ in range(n_batches):
        batch = []
        for slot in range(BATCH_ROWS):
            protein = rng.choice(proteins)
            p_affinity = round(rng.uniform(3.0, 10.0), 3)
            batch.append({
                "ligand_id": rng.choice(ligands),
                "protein_id": protein,
                "activity_type": _ACTIVITY_TYPES[slot % 4],
                "value_nm": round(10.0 ** (9 - p_affinity), 4),
                "p_affinity": p_affinity,
                "potent": p_affinity >= 6.0,
                "leaf_pre": leaf_pre[protein],
            })
        batches.append(batch)
        reads.append((
            "SELECT ligand_id, protein_id, p_affinity FROM bindings "
            f"WHERE ligand_id = '{rng.choice(ligands)}'",
            "SELECT count(*), mean(p_affinity), max(p_affinity) "
            f"IN SUBTREE '{rng.choice(clades)}'"))
    return World(dataset, drugtree, engine, data_dir, work, batches, reads)


def discard(world: World) -> None:
    """Release a world that was set up but will not be run."""
    world.drugtree.close()


def run(world: World, watch: harness.Stopwatch) -> Out:
    out = Out(timed_from=harness.warmup_count(len(world.batches)))
    database = world.drugtree.database
    bindings = world.drugtree.tables["bindings"]
    execute = world.engine.execute
    counters_before = get_metrics().counter_values()
    written_before = 0
    for cycle, batch in enumerate(world.batches):
        if cycle == out.timed_from:
            written_before = harness.bytes_written()
        out.attempted += 1 + len(world.reads[cycle])
        try:
            _, nanos = watch.timed(_insert_batch, database, bindings,
                                     batch)
            out.batch_ns.append(nanos)
            for text in world.reads[cycle]:
                _, nanos = watch.timed(execute, text)
                out.read_ns.append(nanos)
        except DrugTreeError as error:
            out.failed += 1
            out.problems.append(f"cycle {cycle}: {error}")
            continue
        if cycle >= out.timed_from:
            out.user_bytes += sum(_encoded(values.values())
                                  for values in batch)
    out.written_bytes = harness.bytes_written() - written_before
    after = get_metrics().counter_values()
    out.counters = {name: after[name] - counters_before.get(name, 0)
                    for name in after}

    for point, aggregate in world.reads[-PROBES // 2:]:
        out.probes += [(point, execute(point).rows),
                       (aggregate, execute(aggregate).rows)]
    out.live_bytes = sum(
        _encoded(row) for name in _TABLES
        for row in world.drugtree.tables[name].scan_rows())
    out.data_bytes = harness.dir_bytes(world.data_dir)
    crash_image = world.work / "crash"
    shutil.copytree(world.data_dir, crash_image)
    world.drugtree.close()

    for attempt in range(RECOVERIES):
        if out.crash_copy is not None:
            out.crash_copy.close()
        # Recovery truncates torn tails and drops orphans in place, so
        # every attempt opens its own copy of the image.
        image = world.work / f"recover{attempt}"
        shutil.copytree(crash_image, image)
        out.crash_copy, nanos = watch.timed(
            _reopen, world.dataset.tree, image)
        out.recover_s.append(nanos / 1e9)
    return out


def end_to_end(world: World, out: Out) -> dict[str, dict]:
    batch_ns = out.batch_ns[out.timed_from:]
    read_ns = out.read_ns[2 * out.timed_from:]
    # Percentiles over batches and reads alike: the two read kinds are
    # 50/50, so a reads-only median sits on the cliff between them and
    # jumps from seed to seed; over all ops it sits inside the point
    # lookups, and the tail is the flush and compaction stalls.
    rows = harness.wall_rows(batch_ns + read_ns)
    rows.update(harness.outcome_rows(out.attempted, out.failed))
    rows["ingest_rows_per_s"] = harness.row(
        len(batch_ns) * BATCH_ROWS / (sum(batch_ns) / 1e9),
        n=len(batch_ns))
    rows["recover_s"] = harness.row(statistics.median(out.recover_s),
                                    n=len(out.recover_s))
    rows["write_amp"] = harness.row(out.written_bytes / out.user_bytes)
    return rows


def _table_rows(drugtree: DrugTree) -> dict:
    return {name: dict(drugtree.tables[name].scan()) for name in _TABLES}


def check(world: World, out: Out) -> list[str]:
    """Every acknowledged row is present and equal in the crash image
    and in the cleanly closed store, and the reopened store answers as
    the live one did."""
    problems = list(out.problems)
    acknowledged = _table_rows(world.drugtree)
    if _table_rows(out.crash_copy) != acknowledged:
        problems.append("crash image lost or changed acknowledged rows")
    out.crash_copy.close()
    clean = _reopen(world.dataset.tree, world.data_dir)
    try:
        if _table_rows(clean) != acknowledged:
            problems.append("clean store lost or changed "
                            "acknowledged rows")
        engine = QueryEngine(clean,
                             EngineConfig(use_semantic_cache=False))
        for text, before in out.probes:
            if engine.execute(text).rows != before:
                problems.append(f"answer changed across reopen: {text}")
    finally:
        clean.close()
    return problems


def per_layer(world: World, out: Out, tracer, tallies) -> dict[str, float]:
    rows_written = len(out.batch_ns) * BATCH_ROWS
    rows = layers.setup_rows(tracer.setup_spans)
    rows.update(layers.query_rows(tracer, tallies))
    rows.update({
        "storage.durable.wal.append_us":
            tracer.self_us_per("storage.durable.wal.append"),
        "storage.durable.wal.fsyncs": out.counters.get("wal.fsyncs", 0),
        "storage.durable.wal.bytes_per_row": layers.ratio(
            out.counters.get("wal.bytes", 0), rows_written),
        "storage.durable.db.flushes":
            out.counters.get("lsm.flushes", 0),
        "storage.durable.db.compactions":
            out.counters.get("lsm.compactions", 0),
        "storage.durable.db.flush_s":
            tracer.self_ns.get("storage.durable.db.flush", 0) / 1e9,
        "storage.durable.db.compact_s":
            tracer.total_ns.get("storage.durable.db.compact_level", 0)
            / 1e9,
        "storage.durable.db.stall_max_ms": max(out.batch_ns) / 1e6,
        "storage.durable.db.space_amp": layers.ratio(out.data_bytes,
                                                     out.live_bytes),
    })
    return rows
