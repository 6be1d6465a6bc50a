"""E16 — sharded replication surviving node-level chaos (extension).

PR 9 shards the overlay across simulated nodes by clade interval, with
quorum reads, hinted handoff, and merkle anti-entropy. This experiment
pins the two claims that justify the replication tax:

* **Availability**: the same seeded node-crash window (one replica dark
  for 60 virtual seconds) is replayed against an RF=3/R=2 cluster and
  an RF=1 cluster over identical data and an identical tap workload.
  The replicated cluster must keep answering every tap within the
  deadline — quorum reads route around the dark replica, writes park
  hints — while RF=1 provably cannot: every query touching the dead
  node's shard fails its quorum.
* **Convergence**: hinted handoff off, a crash window seeds real
  replica divergence; merkle anti-entropy must converge it to
  zero-diff in a bounded number of rounds (one round repairs, the
  next proves the fixpoint), verified by root-hash agreement.

All answers during chaos are also checked against a single-node engine
over the same overlay — availability through degraded answers would be
cheating.

A third, calm measurement covers what a write costs the *next read*:
cached views absorb the rows a write added instead of being rebuilt
(``run_view_reuse`` counts it, timing-free, so CI gates on it;
``run_read_after_write`` reports the wall it saves at two world sizes).
"""

from __future__ import annotations

import statistics
import time

from repro.cluster import ClusterConfig, ClusterEngine
from repro.core import EngineConfig, QueryEngine
from repro.errors import DrugTreeError
from repro.faults import FaultSchedule, Outage
from repro.obs import MetricsRegistry, get_metrics, set_metrics
from repro.scenarios import run_divergence_repair
from repro.workloads import (
    DatasetConfig,
    QueryGenerator,
    TextTable,
    build_dataset,
)
from repro.workloads.queries import ALL_KINDS

N_LEAVES = 24
N_LIGANDS = 30
WORLD_SEED = 402
N_TAPS = 24
THINK_S = 3.0
DEADLINE_S = 1.5
CRASH_START_S = 2.0
CRASH_LEN_S = 60.0
DIVERGENT_WRITES = 8
VIEW_READS = 64
VIEW_WRITE_EVERY = 8
#: (leaves, ligands): the ledger's ``cluster_rw`` world and the sizing
#: lead it started from.
READ_AFTER_WRITE_WORLDS = ((32, 64), (60, 120))
READ_AFTER_WRITE_PAIRS = 24


def _make_cluster(dataset, rf: int, hinted_handoff: bool = True):
    read_quorum = 2 if rf >= 2 else 1
    return ClusterEngine.from_drugtree(
        dataset.drugtree(),
        cluster_config=ClusterConfig(
            nodes=5, partitions=4, replication_factor=rf,
            read_quorum=read_quorum, write_quorum=read_quorum,
            hinted_handoff=hinted_handoff,
        ),
        clock=dataset.clock,
        config=EngineConfig(use_semantic_cache=False),
    )


def run_crash_session(rf: int, taps: int = N_TAPS) -> dict:
    """Replay the tap loop with one replica crashed mid-session."""
    set_metrics(MetricsRegistry())
    dataset = build_dataset(DatasetConfig(
        n_leaves=N_LEAVES, n_ligands=N_LIGANDS, seed=WORLD_SEED))
    engine = _make_cluster(dataset, rf)
    single = QueryEngine(dataset.drugtree(),
                         EngineConfig(use_semantic_cache=False))
    clock = dataset.clock
    now = clock.now()
    engine.router.cluster.set_schedule(FaultSchedule((
        Outage(now + CRASH_START_S, now + CRASH_START_S + CRASH_LEN_S,
               target="node-0"),
    )))
    generator = QueryGenerator(dataset.family, dataset.ligands,
                               seed=WORLD_SEED)
    # Writes land in partition 0, whose replica group includes the
    # crashed node-0 at every RF — at RF=3 they succeed and park a
    # hint, at RF=1 they fail their write quorum outright.
    write_leaf = engine.labeling.leaf_name_at(
        engine.partitioner.interval_partitions[0].low)
    write_pre = engine.labeling.leaf_position(write_leaf)
    tally = {"answered": 0, "late": 0, "failed": 0, "mismatched": 0,
             "writes": 0, "failed_writes": 0}
    for tap in range(taps):
        if tap % 6 == 3:
            values = {
                "ligand_id": f"LIG-TAP-{tap}",
                "protein_id": write_leaf, "activity_type": "IC50",
                "value_nm": 15.0 + tap, "p_affinity": 7.2,
                "potent": True, "leaf_pre": write_pre,
            }
            try:
                engine.insert("bindings", values)
            except DrugTreeError:
                tally["failed_writes"] += 1
            else:
                tally["writes"] += 1
                # Mirror accepted writes so parity checks keep holding.
                single.drugtree.tables["bindings"].insert(values)
        kind = ALL_KINDS[tap % len(ALL_KINDS)]
        query = generator.draw(kind)
        before = clock.now()
        try:
            result = engine.execute(query, deadline=DEADLINE_S)
        except DrugTreeError:
            tally["failed"] += 1
        else:
            if clock.now() - before > DEADLINE_S:
                tally["late"] += 1
            elif result.rows != single.execute(query).rows:
                tally["mismatched"] += 1
            else:
                tally["answered"] += 1
        clock.advance(THINK_S)
    # Heal past the crash window, then let maintenance catch up.
    clock.advance(CRASH_LEN_S)
    engine.router.drain_hints()
    repair = engine.router.anti_entropy()
    stats = engine.router.stats
    return {
        "rf": rf,
        "taps": taps,
        "tally": tally,
        "answered_fraction": tally["answered"] / taps,
        # Cumulative counters: opportunistic hint drains and half-open
        # probes during the post-heal taps already did some of the
        # recovery work before this accounting runs.
        "breaker_trips": engine.router.breakers.trips(),
        "breaker_skips": stats.breaker_skips,
        "hints_queued": stats.hints_queued,
        "hints_delivered": stats.hints_delivered,
        "post_heal_converged": repair.converged,
        "virtual_s": clock.now(),
    }


def run_convergence(divergent_writes: int = DIVERGENT_WRITES) -> dict:
    """Seed replica divergence, then measure anti-entropy rounds."""
    set_metrics(MetricsRegistry())
    dataset = build_dataset(DatasetConfig(
        n_leaves=N_LEAVES, n_ligands=N_LIGANDS, seed=WORLD_SEED))
    engine = _make_cluster(dataset, rf=3, hinted_handoff=False)
    report = run_divergence_repair(dataset, engine,
                                   writes=divergent_writes)
    assert not report["failures"], report["failures"]
    repair = report["repair"]
    return {
        "writes": divergent_writes,
        "divergent_keys_before": report["divergent_keys_before"],
        "rounds": repair["rounds"],
        "keys_repaired": repair["keys_repaired"],
        "entries_pushed": repair["entries_pushed"],
        "converged": repair["converged"],
        "divergent_keys_after": engine.router.verify().divergent_keys,
    }


def _calm_pair(n_leaves: int, n_ligands: int):
    """A calm RF=3 cluster, its single-node mirror, and the four reads
    (two clades, all bindings, the ligands) whose partition sets fit
    the view cache together."""
    set_metrics(MetricsRegistry())
    dataset = build_dataset(DatasetConfig(
        n_leaves=n_leaves, n_ligands=n_ligands, seed=WORLD_SEED))
    engine = _make_cluster(dataset, rf=3)
    single = QueryEngine(dataset.drugtree(),
                         EngineConfig(use_semantic_cache=False))
    clades = engine.partitioner.interval_partitions
    queries = [
        f"SELECT count(*) FROM bindings IN SUBTREE '{clades[0].name}'",
        f"SELECT count(*) FROM bindings IN SUBTREE '{clades[1].name}'",
        "SELECT count(*) FROM bindings",
        "SELECT count(*) FROM ligands",
    ]
    return engine, single, queries


def _insert_mirrored(engine, single, serial: int) -> None:
    """One binding under clade 0 or 1, into cluster and mirror."""
    clade = engine.partitioner.interval_partitions[serial % 2]
    leaf = engine.labeling.leaf_name_at(clade.low)
    values = {
        "ligand_id": f"LIG-VIEW-{serial}", "protein_id": leaf,
        "activity_type": "IC50", "value_nm": 15.0 + serial,
        "p_affinity": 7.2, "potent": True,
        "leaf_pre": engine.labeling.leaf_position(leaf),
    }
    engine.insert("bindings", values)
    single.drugtree.tables["bindings"].insert(values)


def run_view_reuse(reads: int = VIEW_READS,
                   write_every: int = VIEW_WRITE_EVERY) -> dict:
    """Cycle four partition sets with an insert before every
    *write_every*-th read; count how each read got its view.

    Every number is a count that repeats exactly: ``expected_absorbed``
    is what the mirror's own row counts say each set gained between
    two reads of it.
    """
    engine, single, queries = _calm_pair(N_LEAVES, N_LIGANDS)
    last_count: dict[str, int] = {}
    expected_absorbed = mismatched = writes = 0
    for index in range(reads):
        if index % write_every == write_every - 1:
            _insert_mirrored(engine, single, writes)
            writes += 1
        query = queries[index % len(queries)]
        expected = single.execute(query).rows
        mismatched += engine.execute(query).rows != expected
        count = expected[0]["count_all"]
        expected_absorbed += count - last_count.get(query, count)
        last_count[query] = count
    counters = get_metrics().counter_values("cluster.views.")
    return {
        "reads": reads, "writes": writes, "mismatched": mismatched,
        "partition_sets": len(queries),
        "expected_absorbed": expected_absorbed,
        **{name.removeprefix("cluster.views."): int(value)
           for name, value in counters.items()},
    }


def run_read_after_write(n_leaves: int, n_ligands: int,
                         pairs: int = READ_AFTER_WRITE_PAIRS) -> dict:
    """Median wall of the read that follows a write: absorbed by the
    warm engine's cached view vs rebuilt by a cold engine over the same
    router (what every write forced before views absorbed),
    alternating so drift hits both."""
    engine, single, queries = _calm_pair(n_leaves, n_ligands)
    query = queries[2]
    engine.execute(query)
    wall_us: dict[str, list[float]] = {"rebuild": [], "absorb": []}
    for serial in range(2 * pairs):
        mode = ("rebuild", "absorb")[serial % 2]
        _insert_mirrored(engine, single, serial)
        reader = engine if mode == "absorb" else ClusterEngine(
            engine.tree, engine.router, config=engine.config)
        started = time.perf_counter()
        rows = reader.execute(query).rows
        wall_us[mode].append((time.perf_counter() - started) * 1e6)
        assert rows == single.execute(query).rows
    return {
        "world": f"{n_leaves}/{n_ligands}",
        "bindings": single.drugtree.binding_count,
        "rebuild_us": statistics.median(wall_us["rebuild"]),
        "absorb_us": statistics.median(wall_us["absorb"]),
    }


def collect_metrics(taps: int = N_TAPS,
                    divergent_writes: int = DIVERGENT_WRITES) -> dict:
    """E16 numbers: availability under node crash at RF=3 vs RF=1, and
    anti-entropy convergence from a seeded divergence."""
    rf3 = run_crash_session(3, taps=taps)
    rf1 = run_crash_session(1, taps=taps)
    convergence = run_convergence(divergent_writes=divergent_writes)
    return {
        "node_crash": {"rf3": rf3, "rf1": rf1},
        "anti_entropy": convergence,
        "headline": {
            "rf3_answered": rf3["answered_fraction"],
            "rf1_answered": rf1["answered_fraction"],
            "convergence_rounds": convergence["rounds"],
        },
    }


def test_e16_rf3_survives_node_crash(benchmark, report):
    def sweep():
        return collect_metrics()

    metrics = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = TextTable(
        ["configuration", "within deadline", "failed", "late",
         "breaker skips", "hints delivered", "post-heal converged"],
        title=(f"E16  {N_TAPS} taps, node-0 crashed for "
               f"{CRASH_LEN_S:.0f}s virtual, deadline "
               f"{DEADLINE_S:.1f}s (answers checked vs single-node)"),
    )
    for label, run in (("rf=3 r=2", metrics["node_crash"]["rf3"]),
                       ("rf=1 r=1", metrics["node_crash"]["rf1"])):
        tally = run["tally"]
        table.add_row(
            label, f"{tally['answered']}/{run['taps']}",
            tally["failed"] + tally["failed_writes"], tally["late"],
            run["breaker_skips"],
            f"{run['hints_delivered']}/{run['hints_queued']}",
            run["post_heal_converged"],
        )
    convergence = metrics["anti_entropy"]
    table.add_row(
        "anti-entropy",
        f"{convergence['divergent_keys_before']} divergent keys",
        0, 0, "-", f"{convergence['entries_pushed']} pushed",
        f"{convergence['rounds']} round(s)",
    )
    report(table)

    rf3, rf1 = (metrics["node_crash"]["rf3"],
                metrics["node_crash"]["rf1"])
    # Replication is what answers taps through the crash: RF=3 answers
    # everything (bit-identical to single-node), RF=1 provably cannot.
    assert rf3["answered_fraction"] == 1.0
    assert rf3["tally"]["mismatched"] == 0
    assert rf3["breaker_trips"] > 0
    assert rf1["tally"]["failed"] > 0
    # Sloppy quorum absorbed every write during the crash and hinted
    # handoff replayed them all once node-0 returned.
    assert rf3["tally"]["failed_writes"] == 0
    assert rf3["hints_delivered"] == rf3["tally"]["writes"] > 0
    assert rf3["hints_queued"] == rf3["hints_delivered"]
    assert rf1["tally"]["failed_writes"] > 0
    assert rf3["post_heal_converged"]


def test_e16_anti_entropy_bounded_rounds():
    convergence = run_convergence()
    assert convergence["divergent_keys_before"] > 0
    # One round repairs, the second proves the fixpoint.
    assert convergence["rounds"] <= 2
    assert convergence["converged"]
    assert convergence["keys_repaired"] == convergence["writes"]
    assert convergence["divergent_keys_after"] == 0


def test_e16_writes_do_not_rebuild_views():
    run = run_view_reuse()
    assert run["mismatched"] == 0
    # Four partition sets fit the view cache: each is built once, and
    # no write ever rebuilds one — the rows it added are absorbed.
    assert run["built"] == run["partition_sets"]
    assert run["rows_absorbed"] == run["expected_absorbed"] > 0
    assert run["built"] + run["absorbed"] + run["reused"] == run["reads"]
    assert run["absorbed"] >= run["writes"]


def test_e16_read_after_write_wall(report):
    table = TextTable(
        ["world (leaves/ligands)", "bindings", "rebuild (us)",
         "absorb (us)", "ratio"],
        title=("E16  wall of the read after a write, all-bindings view "
               f"(median of {READ_AFTER_WRITE_PAIRS}, reported not "
               "asserted)"),
    )
    for n_leaves, n_ligands in READ_AFTER_WRITE_WORLDS:
        run = run_read_after_write(n_leaves, n_ligands)
        table.add_row(run["world"], run["bindings"],
                      f"{run['rebuild_us']:.0f}", f"{run['absorb_us']:.0f}",
                      f"{run['rebuild_us'] / run['absorb_us']:.1f}x")
    report(table)
