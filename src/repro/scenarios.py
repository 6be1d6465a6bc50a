"""Scenario runner: replay a workload under a fault schedule.

The bodies behind ``repro chaos``, ``repro cluster --verify`` and
``repro stats``, and behind experiments E12 and E16, as library
functions: each takes a built world (a
:class:`~repro.workloads.datasets.Dataset`), drives it on the dataset's
virtual clock, and returns a plain report (the ``stats`` session
returns nothing: its product is what the instruments recorded). Nothing
here prints or touches the global tracer; ``counters`` in a report are
whatever the current metrics registry has seen, so a caller wanting
one run's counters installs a fresh registry before building the
world. Everything is a deterministic function of the world, the
schedule and the arguments — same inputs, same report, byte for byte.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.cluster import ClusterConfig, ClusterEngine
from repro.core import EngineConfig, QueryEngine
from repro.errors import ChaosError, DrugTreeError
from repro.faults import SCENARIOS, FaultSchedule, Outage, scenario_schedule
from repro.mobile import DrugTreeServer, ServerConfig
from repro.obs import get_metrics
from repro.sources import (
    KIND_ANNOTATION,
    KIND_PROTEIN,
    BreakerConfig,
    FetchScheduler,
    wrap_registry,
)
from repro.workloads import QueryGenerator
from repro.workloads.queries import ALL_KINDS


@dataclass
class ScenarioRun:
    """What one replay did."""

    #: The JSON-ready summary ``repro chaos --json`` prints: outcome
    #: tallies, breaker states, layer stats, metric counters.
    payload: dict
    #: ``(outcome, virtual seconds)`` per tap, in order.
    taps: list[tuple[str, float]]
    #: The schedule's windows as replayed (shifted to the clock).
    faults: list[str]
    breaker_trips: int
    #: The clock's reading when the replay (and any healing) ended.
    virtual_s: float


def _replay(clock, taps: int, think_s: float,
            step: Callable[[int], str]) -> list[tuple[str, float]]:
    """Run ``step(tap)`` *taps* times with *think_s* between taps.

    A step's outcome is what it returns, or ``"failed"`` when it raises
    a library error.
    """
    if taps < 1:
        raise ChaosError(f"a scenario replays at least one tap, "
                         f"not {taps}")
    log = []
    for tap in range(taps):
        started = clock.now()
        try:
            outcome = step(tap)
        except DrugTreeError:
            outcome = "failed"
        log.append((outcome, clock.now() - started))
        clock.advance(think_s)
    return log


def _tally(log: list[tuple[str, float]], *outcomes: str) -> dict[str, int]:
    tally = dict.fromkeys(outcomes, 0)
    for outcome, _ in log:
        tally[outcome] += 1
    return tally


def run_tap_session(dataset, schedule: FaultSchedule, *, taps: int,
                    think_s: float = 3.0,
                    deadline_s: float | None = None,
                    breaker_config: BreakerConfig | None = None,
                    ) -> ScenarioRun:
    """Replay the standard mobile tap loop with *schedule* on the sources.

    Taps cycle navigate → protein details → query through a
    :class:`~repro.mobile.DrugTreeServer` whose federation is a
    :class:`~repro.sources.FetchScheduler` over the chaos-wrapped
    registry; *deadline_s* is the per-tap virtual budget the server
    enforces and *breaker_config* turns the circuit breakers on.
    Outcomes are the response statuses plus ``failed``.
    """
    clock = dataset.clock
    scheduler = FetchScheduler(
        wrap_registry(dataset.registry, schedule),
        clock=clock, breaker_config=breaker_config,
    )
    server = DrugTreeServer(dataset.drugtree(),
                            ServerConfig(tap_deadline_s=deadline_s),
                            federation=scheduler)
    session_id, _ = server.open_session()
    clades = dataset.family.clade_names
    proteins = list(dataset.family.protein_ids)

    def step(tap: int) -> str:
        if tap % 3 == 0:
            response = server.navigate(session_id,
                                       clades[tap % len(clades)])
        elif tap % 3 == 1:
            response = server.protein_details(
                session_id, proteins[tap % len(proteins)])
        else:
            response = server.query(
                session_id, "SELECT protein_id, method FROM proteins")
        return response.status

    log = _replay(clock, taps, think_s, step)
    server.close_session(session_id)
    breakers = scheduler.breakers
    return ScenarioRun(
        payload={
            "outcomes": _tally(log, "fresh", "degraded", "stale",
                               "failed"),
            "breakers": breakers.snapshot() if breakers else {},
            "scheduler": scheduler.stats.snapshot(),
            "counters": get_metrics().snapshot()["counters"],
        },
        taps=log, faults=schedule.describe(),
        breaker_trips=breakers.trips() if breakers else 0,
        virtual_s=clock.now(),
    )


def run_cluster_session(dataset, engine: ClusterEngine,
                        schedule: FaultSchedule, *, taps: int, seed: int,
                        think_s: float = 3.0, deadline_s: float = 1.5,
                        ) -> ScenarioRun:
    """Replay generated queries through *engine* with *schedule* on its
    nodes, then heal: run past the fault horizon, drain hints, repair.

    *schedule* is authored relative to t=0 and shifted to the clock.
    Outcomes: ``answered`` within *deadline_s*, ``late``, ``failed``.
    """
    clock = dataset.clock
    router = engine.router
    schedule = schedule.shifted(clock.now())
    router.cluster.set_schedule(schedule)
    generator = QueryGenerator(dataset.family, dataset.ligands, seed=seed)

    def step(tap: int) -> str:
        started = clock.now()
        engine.execute(generator.draw(ALL_KINDS[tap % len(ALL_KINDS)]),
                       deadline=deadline_s)
        return ("answered" if clock.now() - started <= deadline_s
                else "late")

    log = _replay(clock, taps, think_s, step)
    horizon = schedule.horizon_s()
    if clock.now() < horizon:
        clock.advance(horizon - clock.now() + 1.0)
    router.drain_hints()
    repair = router.anti_entropy()
    return ScenarioRun(
        payload={
            "outcomes": _tally(log, "answered", "late", "failed"),
            "breakers": router.breakers.snapshot(),
            "router": router.stats.as_dict(),
            "anti_entropy": repair.as_dict(),
            "counters": get_metrics().snapshot()["counters"],
        },
        taps=log, faults=schedule.describe(),
        breaker_trips=router.breakers.trips(), virtual_s=clock.now(),
    )


def run_scenario(dataset, name: str, *, seed: int, taps: int,
                 think_s: float = 3.0, deadline_s: float = 1.5,
                 breaker_config: BreakerConfig | None = None,
                 cluster_config: ClusterConfig | None = None,
                 ) -> ScenarioRun:
    """Replay the named scenario of :data:`~repro.faults.SCENARIOS`.

    Source-level names run :func:`run_tap_session`; node-level names
    shard the world into a cluster shaped by *cluster_config* and run
    :func:`run_cluster_session`. The payload leads with ``scenario``.
    """
    if SCENARIOS.get(name) == "node":
        engine = ClusterEngine.from_drugtree(
            dataset.drugtree(), cluster_config=cluster_config,
            clock=dataset.clock, breaker_config=breaker_config)
        run = run_cluster_session(
            dataset, engine,
            scenario_schedule(name, seed, engine.router.cluster.node_ids),
            taps=taps, seed=seed, think_s=think_s, deadline_s=deadline_s)
    else:
        run = run_tap_session(
            dataset, scenario_schedule(name, seed), taps=taps,
            think_s=think_s, deadline_s=deadline_s,
            breaker_config=breaker_config)
    run.payload = {"scenario": name, **run.payload}
    return run


def run_divergence_repair(dataset, engine: ClusterEngine,
                          writes: int = 5) -> dict:
    """Seed a replica divergence in *engine*, heal it, prove it healed.

    *engine* must have been sharded from ``dataset.drugtree()`` with
    hinted handoff off. The primary of partition 0 crashes for 5 s
    while *writes* bindings land in its partition — the sloppy quorum
    leaves that replica behind. After healing (past the crash window
    and the breaker reset timeout) merkle anti-entropy must converge
    the replicas, and the cluster must answer exactly like a
    single-node engine over the same, grown overlay. ``failures`` lists
    whichever of those did not hold.
    """
    clock = dataset.clock
    router = engine.router
    drugtree = dataset.drugtree()
    partition = engine.partitioner.interval_partitions[0]
    victim = router.cluster.group_for(partition.pid).node_ids[0]
    router.cluster.set_schedule(FaultSchedule(
        (Outage(clock.now(), clock.now() + 5.0, target=victim),)
    ))
    rows = []
    for i in range(writes):
        leaf = engine.labeling.leaf_name_at(
            partition.low + i % partition.leaf_count)
        rows.append({
            "ligand_id": f"LIG-DIVERGE-{i}", "protein_id": leaf,
            "activity_type": "IC50", "value_nm": 25.0 + i,
            "p_affinity": 7.6, "potent": True,
            "leaf_pre": engine.labeling.leaf_position(leaf),
        })
        engine.insert("bindings", rows[-1])
    clock.advance(12.0)
    before = router.verify()
    repair = router.anti_entropy()
    after = router.verify()
    failures = []
    if before.converged:
        failures.append("expected a seeded divergence, replicas "
                        "already agree")
    if not repair.converged or not after.converged:
        failures.append("anti-entropy did not converge")
    if after.divergent_keys:
        failures.append(f"{after.divergent_keys} divergent keys remain "
                        "after repair")
    for values in rows:
        drugtree.tables["bindings"].insert(values)
    single = QueryEngine(drugtree,
                         config=EngineConfig(use_semantic_cache=False))
    checks = [
        "SELECT count(*) FROM bindings",
        f"SELECT * FROM bindings WHERE p_affinity >= 6.0 "
        f"IN SUBTREE '{dataset.family.clade_names[0]}'",
        "SELECT protein_id, p_affinity FROM bindings "
        "ORDER BY p_affinity DESC LIMIT 10",
    ]
    for dtql in checks:
        want, got = single.execute(dtql), engine.execute(dtql)
        if (want.columns, want.values) != (got.columns, got.values):
            failures.append(f"parity mismatch: {dtql}")
    return {
        "victim": victim,
        "divergent_keys_before": before.divergent_keys,
        "repair": repair.as_dict(),
        "converged": after.converged,
        "parity_checks": len(checks),
        "failures": failures,
    }


def run_representative_session(dataset) -> None:
    """Touch every instrumented layer once, for ``repro stats``.

    Repeated queries (cache hits) and a narrowing one (a miss: the
    cache answers a query's own signature only), one remote-detail
    projection (scheduler traffic), a short mobile replay with viewport
    prefetch, one fetch batch with duplicate keys, and a sharded-cluster
    phase with a node down. The caller reads the metrics registry and
    tracer it installed.
    """
    drugtree = dataset.drugtree()
    scheduler = FetchScheduler(dataset.registry)
    engine = QueryEngine(drugtree, federation=scheduler)
    clade = dataset.family.clade_names[0]
    for dtql in (
        "SELECT count(*) FROM bindings",
        f"SELECT * FROM bindings WHERE p_affinity >= 6.0 "
        f"IN SUBTREE '{clade}'",
        f"SELECT * FROM bindings WHERE p_affinity >= 7.0 "
        f"IN SUBTREE '{clade}'",
        "SELECT count(*) FROM bindings",
        "SELECT protein_id, method FROM proteins",
    ):
        engine.execute(dtql)
    server = DrugTreeServer(drugtree, ServerConfig(),
                            federation=scheduler)
    session_id, _ = server.open_session()
    for focus in dataset.family.clade_names[:3]:
        server.navigate(session_id, focus)
    server.close_session(session_id)
    # One batch naming the same viewport's proteins twice: the
    # scheduler deduplicates the repeated keys before dispatch, so
    # ``scheduler.coalesced`` moves in the snapshot.
    visible = list(dataset.family.protein_ids[:16])
    scheduler.fetch_all([
        (KIND_PROTEIN, visible),
        (KIND_ANNOTATION, visible),
        (KIND_PROTEIN, visible),
    ])
    # One node crashed for the whole cluster phase: the per-node
    # breakers publish their state gauges
    # (breaker.state.cluster.replica@node-N) into the same snapshot.
    cluster_engine = ClusterEngine.from_drugtree(
        drugtree,
        cluster_config=ClusterConfig(nodes=4, partitions=3,
                                     replication_factor=2,
                                     read_quorum=1, write_quorum=1),
        clock=dataset.clock,
        breaker_config=BreakerConfig(failure_threshold=2,
                                     reset_timeout_s=300.0),
    )
    crash_start = dataset.clock.now()
    cluster_engine.router.cluster.set_schedule(FaultSchedule((
        Outage(crash_start, crash_start + 600.0, target="node-0"),
    )))
    # A read reads only the partitions its view lacks or a write moved.
    # Node-0 leads partition 0: the first read fails there once, the
    # write into partition 0 fails there again (a hint is parked on
    # node-1) and opens its breaker, and the next read re-reads
    # partition 0 around it. The last read is served by the view.
    cluster_engine.execute(
        "SELECT protein_id FROM proteins WHERE leaf_pre < 4"
    )
    cluster_engine.insert("bindings", {
        "ligand_id": "LIG-SESSION", "protein_id":
            cluster_engine.labeling.leaf_name_at(0),
        "activity_type": "IC50", "value_nm": 40.0, "p_affinity": 7.4,
        "potent": True,
    })
    cluster_engine.execute("SELECT count(*) FROM bindings")
    cluster_engine.execute(
        f"SELECT count(*) FROM bindings IN SUBTREE '{clade}'"
    )
