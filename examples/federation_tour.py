"""Federation tour: where the lag comes from, and the standard fixes.

Walks through the multi-source layer the paper's abstract describes —
"data is being obtained from multiple sources, integrated and then
presented to the user" — and shows each optimization working, on the
path production runs:

1. per-item vs batched vs concurrent integration (round-trips are the
   cost, and independent ones overlap),
2. the mobile server's viewport prefetch answering a details tap with
   no round-trip,
3. the fetch scheduler's retry ladder riding out an error burst,
4. a circuit breaker refusing a dark source without paying for it.

Run with::

    python examples/federation_tour.py
"""

from repro import DatasetConfig, build_dataset
from repro.errors import SourceError
from repro.mobile import DrugTreeServer
from repro.obs import MetricsRegistry, set_metrics
from repro.sources import (
    KIND_PROTEIN,
    BreakerConfig,
    ChaosSource,
    ErrorBurst,
    FaultSchedule,
    FetchScheduler,
    Outage,
    SourceRegistry,
)
from repro.workloads import TextTable


def integration_modes(seed: int) -> None:
    table = TextTable(
        ["mode", "round-trips", "simulated latency s"],
        title="1. integrating a 50-leaf family from three sources",
    )
    for mode in ("per_item", "batched", "concurrent"):
        dataset = build_dataset(DatasetConfig(n_leaves=50, n_ligands=80,
                                              seed=seed))
        _, report = dataset.integrate(mode=mode)
        table.add_row(mode, report.roundtrips, report.virtual_latency_s)
    print(table.render())


def prefetch_demo(dataset) -> None:
    metrics = MetricsRegistry()
    set_metrics(metrics)
    drugtree = dataset.drugtree()
    server = DrugTreeServer(drugtree,
                            federation=FetchScheduler(dataset.registry))
    # Each render pulls the detail records of every leaf on screen in
    # one overlapped batch ...
    session_id, _ = server.open_session()
    clade = drugtree.tree.find(
        dataset.family.protein_ids[0]).parent.parent
    nodes = server.navigate(session_id, clade.name).message.payload()
    on_screen = [entry["name"] for entry in nodes["nodes"].values()
                 if entry.get("leaf")]
    before = dataset.registry.combined_stats()["roundtrips"]
    for protein_id in on_screen:  # ... so the taps that follow are free.
        server.protein_details(session_id, protein_id)
    roundtrips = dataset.registry.combined_stats()["roundtrips"] - before
    counters = metrics.snapshot()["counters"]
    print(f"\n2. server prefetch: {len(on_screen)} details taps -> "
          f"{counters['mobile.prefetch.hits']} prefetch hits, "
          f"{roundtrips:.0f} round-trips "
          f"({counters['mobile.prefetch.keys']} keys pulled ahead in "
          f"{counters['mobile.prefetch.batches']} render batches)")


def _one_source_registry(dataset, schedule) -> SourceRegistry:
    registry = SourceRegistry()
    registry.register(ChaosSource(dataset.protein_source, schedule))
    return registry


def retry_demo(dataset) -> None:
    burst = FaultSchedule([ErrorBurst(0.0, 1e9, failure_rate=0.4)],
                          seed=1)
    scheduler = FetchScheduler(_one_source_registry(dataset, burst),
                               max_attempts=5, backoff_s=0.1)
    failures = 0
    for protein_id in dataset.family.protein_ids[:20]:
        try:
            scheduler.fetch(KIND_PROTEIN, protein_id)
        except SourceError:
            failures += 1
    print(f"\n3. scheduler ladder over a 40%-flaky source: "
          f"{scheduler.stats.retries} retries absorbed, "
          f"{failures}/20 requests ultimately failed")


def breaker_demo(dataset) -> None:
    start = dataset.clock.now()
    outage = FaultSchedule([Outage(start, start + 60.0)])
    scheduler = FetchScheduler(
        _one_source_registry(dataset, outage), max_attempts=1,
        breaker_config=BreakerConfig(failure_threshold=3,
                                     reset_timeout_s=30.0))
    for protein_id in dataset.family.protein_ids[:20]:
        scheduler.fetch_all_resilient([(KIND_PROTEIN, [protein_id])])
    paid = dataset.clock.now() - start
    print(f"\n4. breaker over a dark source: 20 requests, 3 timeouts "
          f"paid ({paid:.2f}s simulated), "
          f"{scheduler.stats.breaker_skips} refused instantly; "
          f"every answer flagged 'missing', none raised")


def main() -> None:
    integration_modes(seed=31)
    dataset = build_dataset(DatasetConfig(n_leaves=50, n_ligands=80,
                                          seed=31))
    prefetch_demo(dataset)
    retry_demo(dataset)
    breaker_demo(dataset)


if __name__ == "__main__":
    main()
