"""E14 — durability cost and recovery speed (extension).

Two questions about the opt-in LSM storage layer:

1. **Write cost.** What does WAL-first logging add to ingest, and how
   much of it is fsync policy? The same synthetic binding stream is
   inserted under ``fsync="always"`` (sync every record),
   ``"batch"`` (group commit), and ``"never"`` (OS-buffered), plus a
   pure in-memory baseline. The interesting ratio is batch vs always:
   group commit should recover most of the durable-write penalty.

2. **Recovery speed.** After a clean shutdown, is reopening the store
   (manifest load + WAL replay + overlay restore) faster than
   re-integrating the world from sources? (Generating the synthetic
   world is timed in neither arm.) The paper's mobile setting
   makes cold starts common, so warm-start recovery is the win that
   justifies the storage layer.

Results feed EXPERIMENTS.md E14.
"""

from __future__ import annotations

import random
import statistics
import tempfile
from pathlib import Path

from repro.core import DrugTree
from repro.obs import WallTimer, get_metrics
from repro.storage.durable import StorageConfig
from repro.workloads import DatasetConfig, TextTable, build_dataset

WORLD = DatasetConfig(n_leaves=24, n_ligands=40, seed=601)
N_WRITE_ROWS = 2_000
FSYNC_POLICIES = ("always", "batch", "never")
#: E14a reports the median ingest time of this many rounds per fsync
#: policy, E14b the median of this many cold/warm rounds.
WRITE_ROUNDS = 3
RECOVERY_ROUNDS = 3

#: The CI-sized variant the smoke test below runs.
QUICK_KWARGS = {"n_write_rows": 400,
                "world": DatasetConfig(n_leaves=12, n_ligands=16,
                                       seed=601)}

_ACTIVITY_TYPES = ("Ki", "Kd", "IC50", "EC50")


def _storage(data_dir: Path, fsync: str = "never",
             flush_bytes: int = 32 * 1024) -> StorageConfig:
    return StorageConfig(durable=True, data_dir=str(data_dir),
                         fsync=fsync, memtable_flush_bytes=flush_bytes)


def _binding_rows(n_rows: int, protein_ids, labeling, seed: int):
    rng = random.Random(seed)
    for i in range(n_rows):
        protein_id = protein_ids[i % len(protein_ids)]
        p_affinity = round(rng.uniform(3.0, 10.0), 3)
        yield {
            "ligand_id": f"lig_{i % 997:04d}",
            "protein_id": protein_id,
            "activity_type": _ACTIVITY_TYPES[i % len(_ACTIVITY_TYPES)],
            "value_nm": round(10.0 ** (9 - p_affinity), 4),
            "p_affinity": p_affinity,
            "potent": p_affinity >= 6.0,
            "leaf_pre": labeling.leaf_position(protein_id),
        }


def _ingest_seconds(dataset, n_rows: int,
                    storage: StorageConfig | None) -> float:
    """Wall seconds to insert *n_rows* bindings, batched per 100 rows
    when durable so group commit gets the shot it would get in the real
    integration pipeline. The world and the row stream are built
    outside the timer."""
    tree = DrugTree(dataset.tree, storage=storage)
    for protein_id in dataset.family.protein_ids:
        tree.add_protein(protein_id)
    bindings = tree.tables["bindings"]
    rows = list(_binding_rows(n_rows, dataset.family.protein_ids,
                              tree.labeling, seed=WORLD.seed + 7))
    with WallTimer() as timer:
        if storage is not None:
            database = tree.database
            for start in range(0, len(rows), 100):
                with database.batch():
                    for row in rows[start:start + 100]:
                        bindings.insert(row)
        else:
            for row in rows:
                bindings.insert(row)
    tree.close()
    return timer.elapsed_s


def write_cost(n_write_rows: int) -> dict:
    """Ingest seconds per fsync policy plus the in-memory baseline.

    Each number is the median of ``WRITE_ROUNDS`` ingests into a fresh
    store, the policies taking turns within a round. One ingest is
    ~0.1 s of wall and this host's noise comes in stretches of up to
    +50 %, so batch is compared with always *within* each round (the
    two ran back to back) and ``batch["vs_always"]`` is the median of
    those per-round ratios: two single timings, and even two medians
    of three, flipped about one run in six.
    """
    dataset = build_dataset(WORLD)
    samples: dict[str, list[float]] = {
        name: [] for name in ("memory", *FSYNC_POLICIES)
    }
    for _ in range(WRITE_ROUNDS):
        for name, seconds in samples.items():
            with tempfile.TemporaryDirectory() as tmp:
                storage = (None if name == "memory" else
                           _storage(Path(tmp) / "db", fsync=name))
                seconds.append(
                    _ingest_seconds(dataset, n_write_rows, storage))
    medians = {name: statistics.median(seconds)
               for name, seconds in samples.items()}
    results = {"memory": {"seconds": medians["memory"]}}
    for policy in FSYNC_POLICIES:
        results[policy] = {
            "seconds": medians[policy],
            "slowdown_vs_memory": medians[policy] / medians["memory"],
        }
    results["batch"]["vs_always"] = statistics.median(
        batch / always for batch, always
        in zip(samples["batch"], samples["always"]))
    return results


def recovery_speed(world: DatasetConfig,
                   rounds: int = RECOVERY_ROUNDS) -> dict:
    """Cold re-integration vs warm reopen of the same world.

    The round with the median speedup of ``rounds`` is reported: one
    round is ~0.1 s of wall, and a single scheduler hiccup in either
    arm used to flip the ratio.
    """
    samples = sorted((_recovery_round(world) for _ in range(rounds)),
                     key=lambda sample: sample["speedup"])
    return samples[len(samples) // 2]


def _recovery_round(world: DatasetConfig) -> dict:
    # Both arms need the generated world (its sources for the cold
    # one, its tree for the warm one); generating it is neither
    # integration nor recovery, so it stays outside both timers.
    dataset = build_dataset(world)
    with tempfile.TemporaryDirectory() as tmp:
        data_dir = Path(tmp) / "db"
        with WallTimer() as cold:
            tree, _ = dataset.integrate(storage=_storage(data_dir))
        tree.close()
        with WallTimer() as warm:
            reopened = DrugTree(dataset.tree,
                                storage=_storage(data_dir))
            reopened.create_default_indexes()
        rows_restored = sum(t.row_count
                            for t in reopened.tables.values())
        reopened.close()
    return {
        "cold_integrate_s": cold.elapsed_s,
        "warm_recover_s": warm.elapsed_s,
        "speedup": cold.elapsed_s / warm.elapsed_s,
        "rows_restored": rows_restored,
    }


def collect_metrics(n_write_rows: int = N_WRITE_ROWS,
                    world: DatasetConfig = WORLD) -> dict:
    """E14 numbers as one JSON-ready dict."""
    wal_before = get_metrics().counter_values().get("wal.appends", 0)
    results = {
        "write_cost": write_cost(n_write_rows),
        "recovery": recovery_speed(world),
    }
    results["wal_appends_during_run"] = (
        get_metrics().counter_values().get("wal.appends", 0) - wal_before
    )
    return results


def test_e14_durability(report):
    metrics = collect_metrics()

    table = TextTable(
        ["fsync policy", "ingest s", "vs memory"],
        title=f"E14a  WAL write cost ({N_WRITE_ROWS} binding inserts)",
    )
    table.add_row("(in-memory)",
                  f"{metrics['write_cost']['memory']['seconds']:.3f}",
                  "1.00x")
    for policy in FSYNC_POLICIES:
        numbers = metrics["write_cost"][policy]
        table.add_row(policy, f"{numbers['seconds']:.3f}",
                      f"{numbers['slowdown_vs_memory']:.2f}x")
    report(table)

    recovery = metrics["recovery"]
    table = TextTable(
        ["path", "seconds"],
        title=f"E14b  cold integrate vs warm recover "
              f"({recovery['rows_restored']} rows)",
    )
    table.add_row("cold integrate", f"{recovery['cold_integrate_s']:.3f}")
    table.add_row("warm recover", f"{recovery['warm_recover_s']:.3f}")
    table.add_row("speedup", f"{recovery['speedup']:.2f}x")
    report(table)

    # Group commit must not cost more than per-record fsync in the
    # median of three back-to-back pairs (a 1.25 noise allowance: on
    # tmpfs-backed CI, fsync is nearly free and the two policies
    # converge), and recovery must beat re-integration
    # (it skips source federation and the integration pipeline) in the
    # median of three rounds.
    assert metrics["write_cost"]["batch"]["vs_always"] <= 1.25
    assert recovery["speedup"] > 1.0


def test_e14_quick_guard(report):
    """CI-sized: durable ingest and recovery work end to end."""
    metrics = collect_metrics(**QUICK_KWARGS)
    assert metrics["recovery"]["rows_restored"] > 0
