"""Command-line interface: ``python -m repro <command>``.

Offers the zero-code tour of the system:

* ``info``    — build a synthetic world and print its shape;
* ``query``   — run one DTQL query (optimized, naive, or EXPLAIN);
* ``explain`` — EXPLAIN ANALYZE: annotated plan tree with actuals;
* ``stats``   — run a representative workload, print the metrics
  registry snapshot and a span summary;
* ``analyze`` — ANALYZE the world's tables and print the optimizer
  statistics (row counts, NDVs, MCVs, histogram edges);
* ``clades``  — per-clade materialized statistics of the tree;
* ``tree``    — draw the annotated tree as ASCII art;
* ``mobile``  — replay a gesture session on a chosen network profile;
* ``serve``   — drive an open-loop multi-tenant traffic interval
  through the admission-controlled serving frontend and print the
  per-tenant SLO report;
* ``similar`` — structural similarity search around a SMILES probe;
* ``export``  — write the world as FASTA / Newick / SMILES / CSV;
* ``check``   — static semantic analysis of DTQL (no world is built);
* ``lint``    — repository invariant lint rules over Python sources;
* ``race``    — whole-program concurrency analysis: unguarded writes
  in lock-owning classes, lock-order cycles, locks held across
  blocking calls (with SARIF output);
* ``chaos``   — replay a mobile tap session under a seeded fault
  scenario with circuit breakers, deadlines, and degradation on;
* ``compact`` — major-compact a durable data directory (bootstraps
  one from the world options when empty) and print the LSM levels
  before and after;
* ``recover`` — reopen a durable data directory, replay its WAL, and
  print the recovery report plus the restored overlay shape.

Every command builds the same deterministic world from ``--seed``
``--leaves`` ``--ligands``, so results are reproducible and commands
compose (a clade name printed by ``clades`` works in ``query``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from collections.abc import Sequence

from repro import obs
from repro.core import EngineConfig, NaiveEngine, QueryEngine
from repro.errors import DrugTreeError
from repro.sources import KIND_ANNOTATION, KIND_PROTEIN, FetchScheduler
from repro.mobile import (
    DrugTreeServer,
    MobileClient,
    NetworkLink,
    ServerConfig,
    get_profile,
    plan_session,
    replay_session,
)
from repro.serving import (
    AdmissionConfig,
    FrontendConfig,
    ServingFrontend,
    TenantConfig,
)
from repro.workloads import (
    DatasetConfig,
    LoadConfig,
    TenantLoad,
    TextTable,
    build_dataset,
    generate_load,
    mean,
    percentile,
)


def _add_world_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--leaves", type=int, default=40,
                        help="proteins in the family (default 40)")
    parser.add_argument("--ligands", type=int, default=80,
                        help="compounds in the library (default 80)")
    parser.add_argument("--seed", type=int, default=42,
                        help="world seed (default 42)")


def _build_world(args: argparse.Namespace):
    return build_dataset(DatasetConfig(
        n_leaves=args.leaves, n_ligands=args.ligands, seed=args.seed,
    ))


def _cmd_info(args: argparse.Namespace) -> int:
    dataset = _build_world(args)
    drugtree, report = dataset.integrate()
    print(drugtree)
    print(f"integration: {report.roundtrips} round-trips, "
          f"{report.virtual_latency_s:.2f}s simulated remote latency")
    table = TextTable(["top-level clade", "leaves", "bindings",
                       "mean pAff", "potent frac"])
    for child in drugtree.tree.root.children:
        if child.is_leaf or not child.name:
            continue
        stats = drugtree.clade_stats(child.name)
        leaves = drugtree.labeling.label_of(child.name).leaf_count
        table.add_row(child.name, leaves, int(stats["count"]),
                      stats["mean"], stats["potent_fraction"])
    print(table.render())
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    dataset = _build_world(args)
    drugtree = dataset.drugtree()
    if args.explain:
        print(QueryEngine(drugtree).explain(args.dtql))
        return 0
    if args.naive:
        result = NaiveEngine(dataset.tree, dataset.registry).execute(
            args.dtql
        )
        cost = (f"{result.roundtrips} round-trips, "
                f"{result.virtual_latency_s:.2f}s simulated latency")
    else:
        fast = QueryEngine(drugtree).execute(args.dtql)
        result = fast
        cost = (f"{fast.counters.get('rows_scanned', 0)} rows scanned, "
                f"cache: {fast.cache_outcome}")
    limit = args.max_rows
    for row in result.rows[:limit]:
        print(row)
    shown = min(len(result.rows), limit)
    print(f"-- {len(result.rows)} rows ({shown} shown); {cost}")
    return 0


@contextlib.contextmanager
def _fresh_observability():
    """Fresh tracer + metrics for one command; restore defaults after."""
    previous_tracer = obs.get_tracer()
    previous_metrics = obs.get_metrics()
    metrics = obs.MetricsRegistry()
    obs.set_metrics(metrics)
    try:
        yield metrics
    finally:
        obs.set_tracer(previous_tracer)
        obs.set_metrics(previous_metrics)


def _cmd_explain(args: argparse.Namespace) -> int:
    with _fresh_observability() as metrics:
        dataset = _build_world(args)
        tracer = obs.Tracer(clock=dataset.clock)
        obs.set_tracer(tracer)
        drugtree = dataset.drugtree()
        engine = QueryEngine(drugtree,
                             federation=FetchScheduler(dataset.registry))
        if args.estimate_only:
            print(engine.explain(args.dtql))
            return 0
        report = engine.analyze(args.dtql)
        if args.json:
            print(json.dumps(report.as_dict(), indent=2,
                             sort_keys=True))
            return 0
        print(report.render())
        del metrics  # per-source totals already rendered by the report
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    with _fresh_observability() as metrics:
        dataset = _build_world(args)
        tracer = obs.Tracer(clock=dataset.clock)
        obs.set_tracer(tracer)
        drugtree = dataset.drugtree()
        scheduler = FetchScheduler(dataset.registry)
        engine = QueryEngine(drugtree, federation=scheduler)

        # A representative session: repeated + narrowing queries (cache
        # traffic), one remote-detail projection (scheduler traffic),
        # and a short mobile replay with viewport prefetch.
        clade = dataset.family.clade_names[0]
        queries = [
            "SELECT count(*) FROM bindings",
            f"SELECT * FROM bindings WHERE p_affinity >= 6.0 "
            f"IN SUBTREE '{clade}'",
            f"SELECT * FROM bindings WHERE p_affinity >= 7.0 "
            f"IN SUBTREE '{clade}'",
            "SELECT count(*) FROM bindings",
            "SELECT protein_id, method FROM proteins",
        ]
        for dtql in queries:
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
        # A short sharded-cluster phase with one node crashed: the
        # per-node breakers publish their state gauges
        # (breaker.state.cluster.replica@node-N) into the same snapshot.
        from repro.cluster import ClusterConfig, ClusterEngine
        from repro.faults import FaultSchedule, Outage
        from repro.sources import BreakerConfig as _BreakerConfig
        cluster_engine = ClusterEngine.from_drugtree(
            drugtree,
            cluster_config=ClusterConfig(nodes=4, partitions=3,
                                         replication_factor=2,
                                         read_quorum=1),
            clock=dataset.clock,
            breaker_config=_BreakerConfig(failure_threshold=2,
                                          reset_timeout_s=300.0),
        )
        crash_start = dataset.clock.now()
        cluster_engine.router.cluster.set_schedule(FaultSchedule((
            Outage(crash_start, crash_start + 600.0, target="node-0"),
        )))
        cluster_engine.execute("SELECT count(*) FROM bindings")
        cluster_engine.execute(
            f"SELECT count(*) FROM bindings IN SUBTREE '{clade}'"
        )
        cluster_engine.execute(
            "SELECT protein_id FROM proteins WHERE leaf_pre < 4"
        )
        # Publish the statistics-staleness gauge alongside the rest.
        drugtree.stale_tables()

        snapshot = metrics.snapshot()
        if args.json:
            payload = dict(snapshot)
            payload["spans"] = tracer.summary()
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0

        counters = TextTable(["counter", "value"], title="Counters")
        for name, value in snapshot["counters"].items():
            counters.add_row(name, value)
        print(counters.render())
        if snapshot["gauges"]:
            gauges = TextTable(["gauge", "value"], title="\nGauges")
            for name, value in snapshot["gauges"].items():
                gauges.add_row(name, value)
            print(gauges.render())
        histograms = TextTable(
            ["histogram", "count", "mean", "min", "max"],
            title="\nHistograms",
        )
        for name, data in snapshot["histograms"].items():
            mean_value = (data["sum"] / data["count"]
                          if data["count"] else 0.0)
            histograms.add_row(name, data["count"], mean_value,
                               data["min"] or 0.0, data["max"] or 0.0)
        print(histograms.render())
        spans = TextTable(
            ["span", "count", "total wall ms", "total virtual s"],
            title="\nSpans",
        )
        for name, agg in sorted(tracer.summary().items()):
            spans.add_row(name, int(agg["count"]),
                          agg["wall_s"] * 1000, agg["virtual_s"])
        print(spans.render())
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    with _fresh_observability() as metrics:
        dataset = _build_world(args)
        drugtree = dataset.drugtree()
        statistics = drugtree.statistics
        if args.table is not None:
            if args.table not in statistics:
                print(f"error: no such table {args.table!r}; "
                      f"known: {', '.join(sorted(statistics))}",
                      file=sys.stderr)
                return 2
            selected = {args.table: statistics[args.table]}
        else:
            selected = dict(sorted(statistics.items()))
        stale = drugtree.stale_tables()

        if args.json:
            payload = {
                "stats_epoch": drugtree.stats_epoch,
                "stale_tables": sorted(stale),
                "stale_gauge": metrics.gauge("stats.stale_tables").value,
                "tables": {
                    name: {
                        "row_count": stats.row_count,
                        "columns": {
                            column.name: {
                                "row_count": column.row_count,
                                "null_count": column.null_count,
                                "distinct_count": column.distinct_count,
                                "min": column.min_value,
                                "max": column.max_value,
                                "most_common": [
                                    [value, count] for value, count
                                    in column.most_common
                                ],
                                "histogram_bounds": (
                                    list(column.histogram.bounds)
                                    if column.histogram is not None
                                    else None
                                ),
                            }
                            for column in stats.columns.values()
                        },
                    }
                    for name, stats in selected.items()
                },
            }
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0

        for name, stats in selected.items():
            table = TextTable(
                ["column", "rows", "nulls", "NDV", "min", "max",
                 "top MCVs", "histogram"],
                title=f"{name} ({stats.row_count} rows)",
            )
            for column in stats.columns.values():
                mcvs = ", ".join(
                    f"{value!r}x{count}"
                    for value, count in column.most_common[:3]
                )
                if column.histogram is not None:
                    bounds = column.histogram.bounds
                    edges = (f"{len(bounds)} buckets "
                             f"[{bounds[0]:g} .. {bounds[-1]:g}]"
                             if bounds else "empty")
                else:
                    edges = "-"
                table.add_row(column.name, column.row_count,
                              column.null_count, column.distinct_count,
                              _brief(column.min_value),
                              _brief(column.max_value),
                              mcvs or "-", edges)
            print(table.render())
            print()
        print(f"-- epoch {drugtree.stats_epoch}; "
              f"{len(stale)} stale table(s)"
              + (f": {', '.join(sorted(stale))}" if stale else ""))
    return 0


def _brief(value, width: int = 12) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    text = str(value)
    return text if len(text) <= width else text[:width - 1] + "…"


def _cmd_clades(args: argparse.Namespace) -> int:
    dataset = _build_world(args)
    drugtree = dataset.drugtree()
    table = TextTable(["clade", "depth", "leaves", "bindings",
                       "mean pAff", "max pAff"])
    for clade in dataset.family.clade_names[:args.max_rows]:
        label = drugtree.labeling.label_of(clade)
        stats = drugtree.clade_stats(clade)
        table.add_row(clade, label.depth, label.leaf_count,
                      int(stats["count"]), stats["mean"], stats["max"])
    print(table.render())
    return 0


def _cmd_tree(args: argparse.Namespace) -> int:
    from repro.bio.draw import ascii_tree

    dataset = _build_world(args)
    drugtree = dataset.drugtree()

    def annotate(node):
        if not node.name:
            return ""
        stats = drugtree.clade_aggregates.stats_for(node)
        if stats["count"] == 0:
            return ""
        return (f"[{int(stats['count'])} bindings, "
                f"max pAff {stats['max']:.1f}]")

    print(ascii_tree(drugtree.tree, annotate=annotate,
                     max_depth=args.depth,
                     show_branch_lengths=args.lengths))
    return 0


def _cmd_mobile(args: argparse.Namespace) -> int:
    dataset = _build_world(args)
    drugtree = dataset.drugtree()
    config = ServerConfig(use_lod=not args.no_lod,
                          use_delta=not args.no_delta)
    server = DrugTreeServer(drugtree, config)
    link = NetworkLink(get_profile(args.network), dataset.clock,
                       seed=args.seed)
    client = MobileClient(server, link)
    session = plan_session(args.gestures, seed=args.seed)
    replay_session(client, session, dataset.family.clade_names)
    latencies = client.latencies()
    print(f"{args.gestures}-gesture session on {args.network} "
          f"(LOD={'off' if args.no_lod else 'on'}, "
          f"delta={'off' if args.no_delta else 'on'}):")
    print(f"  mean latency {mean(latencies):.3f}s, "
          f"p95 {percentile(latencies, 0.95):.3f}s, "
          f"{client.total_bytes_down / 1024:.1f} KB downloaded")
    return 0


def _parse_tenants(spec: str) -> tuple[list[TenantLoad],
                                       list[TenantConfig]]:
    """``name:rps[:weight]`` comma list -> load + tenant configs."""
    loads: list[TenantLoad] = []
    configs: list[TenantConfig] = []
    for part in spec.split(","):
        fields = part.strip().split(":")
        if len(fields) < 2:
            raise DrugTreeError(
                f"bad tenant spec {part!r}; expected name:rps[:weight]"
            )
        name = fields[0]
        rps = float(fields[1])
        weight = float(fields[2]) if len(fields) > 2 else 1.0
        loads.append(TenantLoad(name, rps))
        configs.append(TenantConfig(name, weight=weight))
    return loads, configs


def _cmd_serve(args: argparse.Namespace) -> int:
    with _fresh_observability():
        dataset = _build_world(args)
        drugtree = dataset.drugtree()
        scheduler = FetchScheduler(dataset.registry)
        # Delta framing is per-session state; the serving layer prefers
        # shared full renders so the cache front can answer any tenant.
        server = DrugTreeServer(
            drugtree,
            ServerConfig(use_delta=False, tap_deadline_s=args.slo),
            federation=scheduler,
        )
        loads, tenant_configs = _parse_tenants(args.tenants)
        requests = generate_load(
            dataset.family.clade_names, dataset.family.protein_ids,
            LoadConfig(tenants=tuple(loads), duration_s=args.duration,
                       seed=args.seed),
        )
        admission = (None if args.no_admission
                     else AdmissionConfig(slo_s=args.slo))
        frontend = ServingFrontend(
            server, dataset.clock,
            FrontendConfig(workers=args.workers, policy=args.policy,
                           admission=admission, slo_s=args.slo),
            tenants=tenant_configs,
        )
        report = frontend.run(requests)
        if args.json:
            print(json.dumps(report.as_dict(), indent=2,
                             sort_keys=True))
            return 0
        print(f"{report.offered} requests over "
              f"{report.makespan_s:.1f}s virtual "
              f"({report.offered_rps:.1f} rps offered) — "
              f"policy={args.policy}, "
              f"admission={'off' if args.no_admission else 'on'}, "
              f"SLO {args.slo:.2f}s")
        table = TextTable(["tenant", "offered", "shed", "goodput",
                           "p50 s", "p99 s", "p99.9 s"])
        for tenant_id, tenant in sorted(report.tenants.items()):
            table.add_row(tenant_id, tenant.offered, tenant.shed,
                          f"{tenant.goodput:.3f}",
                          f"{tenant.p50_s:.3f}",
                          f"{tenant.p99_s:.3f}",
                          f"{tenant.p999_s:.3f}")
        print(table.render())
        cache = report.cache
        if cache:
            print(f"cache: {cache['hits']} hits / "
                  f"{cache['misses']} misses "
                  f"({cache['cross_tenant_hits']} cross-tenant), "
                  f"{cache['saved_virtual_s']:.1f}s virtual saved")
        print(f"goodput {report.goodput:.3f} "
              f"({report.goodput_rps:.1f} rps within SLO), "
              f"shed rate {report.shed_rate:.3f}")
    return 0


def _cmd_similar(args: argparse.Namespace) -> int:
    dataset = _build_world(args)
    drugtree = dataset.drugtree()
    engine = QueryEngine(drugtree)
    dtql = (f"SELECT ligand_id, smiles, molecular_weight, logp "
            f"SIMILAR TO '{args.smiles}' >= {args.threshold}")
    result = engine.execute(dtql)
    table = TextTable(["ligand", "SMILES", "MW", "logP"])
    for row in result.rows[:args.max_rows]:
        table.add_row(row["ligand_id"], row["smiles"][:40],
                      row["molecular_weight"], row["logp"])
    print(table.render())
    print(f"-- {len(result.rows)} matches; prefilter examined "
          f"{result.similarity_candidates} of {drugtree.ligand_count} "
          "fingerprints")
    return 0


def _extract_dtql_queries(markdown: str) -> list[str]:
    """DTQL statements from the ```sql fences of a markdown document.

    ``--`` comments are stripped; a line starting with SELECT begins a
    new statement and following lines continue it (the docs wrap long
    queries).
    """
    queries: list[str] = []
    in_sql = False
    current: list[str] = []

    def flush() -> None:
        if current:
            queries.append(" ".join(current))
            current.clear()

    for raw_line in markdown.splitlines():
        stripped = raw_line.strip()
        if stripped.startswith("```"):
            if in_sql:
                flush()
            in_sql = stripped.lower().startswith("```sql")
            continue
        if not in_sql:
            continue
        code = stripped.split("--", 1)[0].strip()
        if not code:
            continue
        if code.upper().startswith("SELECT"):
            flush()
        current.append(code)
    flush()
    return queries


def _cmd_check(args: argparse.Namespace) -> int:
    # No world is needed: analysis is purely static.
    from repro.analysis import SemanticAnalyzer

    if args.dtql is None and args.file is None:
        print("error: give a DTQL query or --file", file=sys.stderr)
        return 2
    if args.dtql is not None:
        queries = [args.dtql]
    else:
        with open(args.file, encoding="utf-8") as handle:
            queries = _extract_dtql_queries(handle.read())
        if not queries:
            print(f"error: no ```sql blocks in {args.file}",
                  file=sys.stderr)
            return 2

    analyzer = SemanticAnalyzer()
    reports = [(dtql, analyzer.check(dtql)) for dtql in queries]
    failed = any(report.errors for _, report in reports)
    if args.sarif:
        from repro.analysis import render_sarif

        print(render_sarif(
            [d for _, report in reports for d in report.diagnostics],
            tool="repro-check"))
        return 1 if failed else 0
    if args.json:
        print(json.dumps(
            [{"query": dtql, **report.as_dict()}
             for dtql, report in reports],
            indent=2, sort_keys=True,
        ))
        return 1 if failed else 0
    for dtql, report in reports:
        print(f"> {dtql}")
        print(report.render())
    print(f"-- {len(reports)} quer{'y' if len(reports) == 1 else 'ies'} "
          f"checked, "
          f"{sum(len(r.errors) for _, r in reports)} error(s)")
    return 1 if failed else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import LINT_RULES, lint_paths, render_sarif

    if args.rules:
        for code, description in sorted(LINT_RULES.items()):
            print(f"{code}  {description}")
        return 0
    diagnostics = lint_paths(args.paths)
    if args.sarif:
        print(render_sarif(diagnostics, tool="repro-lint"))
        return 1 if diagnostics else 0
    if args.json:
        print(json.dumps([d.as_dict() for d in diagnostics],
                         indent=2, sort_keys=True))
        return 1 if diagnostics else 0
    for diagnostic in diagnostics:
        print(f"{diagnostic.file}:{diagnostic.line}: "
              f"{diagnostic.code} {diagnostic.message}")
    print(f"-- {len(diagnostics)} violation(s) in "
          f"{', '.join(args.paths)}")
    return 1 if diagnostics else 0


def _cmd_race(args: argparse.Namespace) -> int:
    from repro.analysis import (
        CONC_RULES,
        analyze_paths,
        render_sarif,
    )

    if args.rules:
        for code, rule in sorted(CONC_RULES.items()):
            print(f"{code}  [{rule.severity.value}]  {rule.summary}")
        return 0
    result = analyze_paths(args.paths)
    if args.sarif:
        print(render_sarif(result.diagnostics, tool="repro-race"))
        return 1 if result.findings else 0
    if args.json:
        print(json.dumps({
            "findings": [{
                "code": f.code, "message": f.message, "file": f.file,
                "line": f.line, "key": f.key, "hint": f.hint,
            } for f in result.findings],
            "summary": result.summary(),
        }, indent=2, sort_keys=True))
        return 1 if result.findings else 0
    for finding in result.findings:
        print(f"{finding.file}:{finding.line}: "
              f"{finding.code} {finding.message}")
        if finding.hint:
            print(f"    hint: {finding.hint}")
    summary = result.summary()
    print(f"-- {len(result.findings)} finding(s) in "
          f"{', '.join(args.paths)} "
          f"({summary['shared_classes']} shared classes, "
          f"{summary['guarded_writes']} guarded writes, "
          f"{summary['locks']} locks)")
    return 1 if result.findings else 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.cluster import ClusterConfig
    from repro.errors import ChaosError
    from repro.scenarios import run_scenario
    from repro.sources import BreakerConfig

    with _fresh_observability():
        try:
            run = run_scenario(
                _build_world(args), args.scenario, seed=args.seed,
                taps=args.taps, think_s=args.think_s,
                deadline_s=args.deadline,
                breaker_config=BreakerConfig(
                    failure_threshold=args.breaker_threshold,
                    reset_timeout_s=args.breaker_reset_s,
                ),
                cluster_config=ClusterConfig(
                    nodes=args.nodes, partitions=args.partitions,
                    replication_factor=args.rf,
                    read_quorum=args.read_quorum,
                ),
            )
        except ChaosError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    report = run.payload
    outcomes = report["outcomes"]
    router = report.get("router")  # node-level scenarios only
    answered = (outcomes["answered"] if router
                else args.taps - outcomes["failed"])
    print(f"scenario {args.scenario!r}, seed {args.seed}: "
          f"{args.taps} taps over {run.virtual_s:.0f}s virtual"
          + (f" (rf={args.rf}, r={args.read_quorum})" if router else ""))
    for line in run.faults:
        print(f"-- fault: {line}")
    table = TextTable(["outcome", "taps"])
    for name, count in outcomes.items():
        table.add_row(name, count)
    print(table.render())
    summary = (f"-- answered {answered}/{args.taps} "
               f"({answered / args.taps:.0%}); "
               f"breaker trips {run.breaker_trips}, ")
    breakers = report["breakers"]
    if router:
        repair = report["anti_entropy"]
        print(f"{summary}breaker skips {router['breaker_skips']}, "
              f"quorum failures {router['quorum_failures']}")
        print(f"-- hints queued {router['hints_queued']}, "
              f"delivered {router['hints_delivered']}; "
              f"read repairs {router['read_repairs']}")
        print(f"-- anti-entropy: rounds {repair['rounds']}, "
              f"keys repaired {repair['keys_repaired']}, "
              f"converged {repair['converged']}")
        breakers = {name: state for name, state in breakers.items()
                    if state != "closed"}
    else:
        scheduler = report["scheduler"]
        print(f"{summary}deadline cancels "
              f"{scheduler['deadline_cancelled']}, "
              f"breaker skips {scheduler['breaker_skips']}")
    if breakers:
        print("-- breakers now: " + ", ".join(
            f"{name}={state}" for name, state in breakers.items()))
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.cluster import ClusterConfig, ClusterEngine
    from repro.scenarios import run_divergence_repair

    with _fresh_observability():
        dataset = _build_world(args)
        engine = ClusterEngine.from_drugtree(
            dataset.drugtree(),
            cluster_config=ClusterConfig(
                nodes=args.nodes,
                partitions=args.partitions,
                replication_factor=args.rf,
                read_quorum=args.read_quorum,
                # --verify seeds a divergence; handoff would heal it
                # before anti-entropy gets the chance to.
                hinted_handoff=not args.verify,
            ),
            clock=dataset.clock,
            config=EngineConfig(use_semantic_cache=False),
        )
        router = engine.router
        cluster = router.cluster
        payload: dict = {
            "config": {
                "nodes": args.nodes, "partitions": args.partitions,
                "rf": args.rf, "read_quorum": args.read_quorum,
                "strongly_consistent":
                    cluster.config.strongly_consistent,
            },
            "topology": cluster.topology(),
        }
        failures: list[str] = []

        if args.verify:
            verify = payload["verify"] = run_divergence_repair(
                dataset, engine, writes=5)
            failures = verify["failures"]
            repair = verify["repair"]
            if not args.json:
                print(f"seeded divergence: crashed {verify['victim']}, "
                      f"5 writes during the window, "
                      f"{verify['divergent_keys_before']} divergent "
                      "keys after heal")
                print(f"anti-entropy: rounds {repair['rounds']}, keys "
                      f"repaired {repair['keys_repaired']}, converged "
                      f"{repair['converged']}")
                print(f"parity: {verify['parity_checks']} checks vs "
                      "single-node engine "
                      f"{'ok' if not failures else 'FAILED'}")
        elif args.repair:
            repair = router.anti_entropy()
            payload["repair"] = repair.as_dict()
            if not args.json:
                print(f"anti-entropy: rounds {repair.rounds}, "
                      f"keys repaired {repair.keys_repaired}, "
                      f"entries pushed {repair.entries_pushed}, "
                      f"converged {repair.converged}")

        payload["nodes"] = cluster.node_states()
        payload["router"] = router.stats.as_dict()
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            topology = TextTable(
                ["partition", "clade", "interval", "replicas"],
                title="Topology",
            )
            for row in payload["topology"]:
                topology.add_row(f"p{row['pid']}", row["clade"],
                                 row["interval"],
                                 ", ".join(row["replicas"]))
            print(topology.render())
            nodes = TextTable(
                ["node", "status", "keys", "hints", "rpcs", "failed"],
                title="\nNodes",
            )
            for row in payload["nodes"]:
                nodes.add_row(row["node"], row["status"], row["keys"],
                              row["hints"], row["rpcs"],
                              row["failed_rpcs"])
            print(nodes.render())
            geometry = cluster.config
            print(f"-- quorums: rf={geometry.replication_factor} "
                  f"r={geometry.read_quorum} w={geometry.write_quorum} "
                  f"({'strong' if geometry.strongly_consistent else 'eventual'}"
                  " consistency)")
        for failure in failures:
            print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _durable_config(args: argparse.Namespace, data_dir: str):
    from repro.storage.durable import StorageConfig

    return StorageConfig(
        durable=True, data_dir=data_dir, fsync=args.fsync,
        memtable_flush_bytes=args.flush_bytes,
    )


def _ensure_durable_world(args: argparse.Namespace, data_dir: str) -> None:
    """Populate *data_dir* from the world options when it's empty.

    An existing MANIFEST marks an adopted store; otherwise the standard
    deterministic world is integrated in durable mode and flushed, so
    ``compact``/``recover`` always have something real to chew on.
    """
    import os

    if os.path.exists(os.path.join(data_dir, "MANIFEST.json")):
        return
    print(f"-- no manifest in {data_dir}; bootstrapping a durable "
          f"world (leaves={args.leaves}, ligands={args.ligands}, "
          f"seed={args.seed})")
    dataset = _build_world(args)
    drugtree, _ = dataset.integrate(
        storage=_durable_config(args, data_dir)
    )
    drugtree.close()


def _level_table(database, title: str) -> str:
    table = TextTable(["level", "segments", "keys", "tombstones",
                       "bytes"], title=title)
    for row in database.level_stats():
        table.add_row(row["level"], row["segments"], row["keys"],
                      row["tombstones"], row["bytes"])
    return table.render()


def _cmd_compact(args: argparse.Namespace) -> int:
    from repro.storage.durable import Database

    with _fresh_observability() as metrics:
        _ensure_durable_world(args, args.data_dir)
        database = Database.open(args.data_dir,
                                 _durable_config(args, args.data_dir))
        before = database.level_stats()
        print(_level_table(database, "Before"))
        database.compact()
        after = database.level_stats()
        collected = int(metrics.counter_values().get(
            "lsm.tombstones_collected", 0))
        if args.json:
            database.close()
            print(json.dumps({
                "before": before,
                "after": after,
                "tombstones_collected": collected,
            }, indent=2, sort_keys=True))
            return 0
        print(_level_table(database, "\nAfter"))
        database.close()
        print(f"-- major compaction: "
              f"{sum(r['segments'] for r in before)} segment(s) -> "
              f"{sum(r['segments'] for r in after)}, "
              f"{collected} tombstone(s) collected")
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    from repro.core import DrugTree

    with _fresh_observability():
        _ensure_durable_world(args, args.data_dir)
        dataset = _build_world(args)
        drugtree = DrugTree(dataset.tree,
                            storage=_durable_config(args, args.data_dir))
        database = drugtree.database
        report = database.recovery.as_dict()
        tables = {name: table.row_count
                  for name, table in drugtree.tables.items()}
        if args.json:
            print(json.dumps({
                "recovery": report,
                "segments": [s.as_row() for s in database.segments],
                "tables": tables,
            }, indent=2, sort_keys=True))
            drugtree.close()
            return 0
        print(f"-- recovered {args.data_dir}: "
              f"{report['segments']} segment(s), "
              f"{report['wal_records']} WAL record(s) replayed, "
              f"{report['torn_bytes']} torn byte(s) truncated, "
              f"{report['orphans_removed']} orphan(s) removed")
        segments = TextTable(["id", "level", "keys", "tombstones",
                              "bytes"], title="Segments")
        for info in database.segments:
            row = info.as_row()
            segments.add_row(row["id"], row["level"], row["keys"],
                             row["tombstones"], row["bytes"])
        print(segments.render())
        overlay = TextTable(["table", "rows"], title="\nRestored overlay")
        for name, count in sorted(tables.items()):
            overlay.add_row(name, count)
        print(overlay.render())
        print(drugtree)
        drugtree.close()
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.workloads import export_dataset

    dataset = _build_world(args)
    paths = export_dataset(dataset, args.directory)
    for name, path in sorted(paths.items()):
        print(f"{name:10s} {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DrugTree reproduction (SIGMOD 2013) command line",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    info = commands.add_parser("info", help="world summary")
    _add_world_options(info)
    info.set_defaults(handler=_cmd_info)

    query = commands.add_parser("query", help="run one DTQL query")
    _add_world_options(query)
    query.add_argument("dtql", help="query text, e.g. "
                       "\"SELECT count(*) FROM bindings\"")
    query.add_argument("--naive", action="store_true",
                       help="use the unoptimized federated engine")
    query.add_argument("--explain", action="store_true",
                       help="print the plan instead of executing")
    query.add_argument("--max-rows", type=int, default=20)
    query.set_defaults(handler=_cmd_query)

    explain = commands.add_parser(
        "explain",
        help="EXPLAIN ANALYZE one DTQL query (plan tree + actuals)")
    _add_world_options(explain)
    explain.add_argument("dtql", help="query text to analyze")
    explain.add_argument("--estimate-only", action="store_true",
                         help="print the cost-based plan, do not execute")
    explain.add_argument("--json", action="store_true",
                         help="emit the analyze report as JSON")
    explain.set_defaults(handler=_cmd_explain)

    stats = commands.add_parser(
        "stats",
        help="run a representative workload, print metrics + spans")
    _add_world_options(stats)
    stats.add_argument("--json", action="store_true",
                       help="emit the metrics snapshot as JSON")
    stats.set_defaults(handler=_cmd_stats)

    analyze = commands.add_parser(
        "analyze",
        help="ANALYZE the tables, print optimizer statistics")
    _add_world_options(analyze)
    analyze.add_argument("--table", default=None,
                         help="restrict to one table (default: all)")
    analyze.add_argument("--json", action="store_true",
                         help="emit the statistics as JSON")
    analyze.set_defaults(handler=_cmd_analyze)

    clades = commands.add_parser("clades",
                                 help="materialized clade statistics")
    _add_world_options(clades)
    clades.add_argument("--max-rows", type=int, default=25)
    clades.set_defaults(handler=_cmd_clades)

    tree = commands.add_parser("tree", help="draw the annotated tree")
    _add_world_options(tree)
    tree.add_argument("--depth", type=int, default=None,
                      help="collapse below this depth")
    tree.add_argument("--lengths", action="store_true",
                      help="show branch lengths")
    tree.set_defaults(handler=_cmd_tree)

    mobile = commands.add_parser("mobile",
                                 help="replay a mobile session")
    _add_world_options(mobile)
    mobile.add_argument("--network", default="3g",
                        choices=("edge", "3g", "hspa", "lte", "wifi"))
    mobile.add_argument("--gestures", type=int, default=15)
    mobile.add_argument("--no-lod", action="store_true")
    mobile.add_argument("--no-delta", action="store_true")
    mobile.set_defaults(handler=_cmd_mobile)

    serve = commands.add_parser(
        "serve",
        help="open-loop multi-tenant serving run with SLO report")
    _add_world_options(serve)
    serve.add_argument("--tenants", default="acme:40:2,uni:10:1",
                       help="comma list of name:rps[:weight] "
                            "(default acme:40:2,uni:10:1)")
    serve.add_argument("--workers", type=int, default=8,
                       help="virtual worker pool size (default 8)")
    serve.add_argument("--duration", type=float, default=30.0,
                       help="traffic interval, virtual s (default 30)")
    serve.add_argument("--policy", choices=["wfq", "fifo"],
                       default="wfq",
                       help="scheduling policy (default wfq)")
    serve.add_argument("--no-admission", action="store_true",
                       help="disable admission control (naive mode)")
    serve.add_argument("--slo", type=float, default=1.0,
                       help="latency SLO, virtual s (default 1.0)")
    serve.add_argument("--json", action="store_true",
                       help="print the full report as JSON")
    serve.set_defaults(handler=_cmd_serve)

    export = commands.add_parser(
        "export", help="write the world in interchange formats")
    _add_world_options(export)
    export.add_argument("directory", help="output directory")
    export.set_defaults(handler=_cmd_export)

    check = commands.add_parser(
        "check",
        help="static semantic analysis of DTQL (no execution)")
    check.add_argument("dtql", nargs="?", default=None,
                       help="query text to analyze")
    check.add_argument("--file", default=None,
                       help="markdown file whose ```sql blocks to check")
    check.add_argument("--json", action="store_true",
                       help="emit machine-readable diagnostics")
    check.add_argument("--sarif", action="store_true",
                       help="emit a SARIF 2.1.0 log")
    check.set_defaults(handler=_cmd_check)

    chaos = commands.add_parser(
        "chaos",
        help="replay taps under a seeded fault scenario (source-level: "
             "calm, blackout, flaky, rushhour, cascade; node-level: "
             "node_calm, node_crash, split_brain, slow_node)")
    _add_world_options(chaos)
    chaos.add_argument("scenario", nargs="?", default="cascade",
                       help="fault scenario name (default cascade); "
                            "unknown names get a did-you-mean hint")
    chaos.add_argument("--taps", type=int, default=30,
                       help="interactions to replay (default 30)")
    chaos.add_argument("--deadline", type=float, default=1.5,
                       help="virtual-seconds budget per tap "
                            "(default 1.5)")
    chaos.add_argument("--think-s", type=float, default=3.0,
                       help="virtual think time between taps "
                            "(default 3.0)")
    chaos.add_argument("--breaker-threshold", type=int, default=3)
    chaos.add_argument("--breaker-reset-s", type=float, default=10.0)
    chaos.add_argument("--nodes", type=int, default=5,
                       help="cluster nodes for node-level scenarios "
                            "(default 5)")
    chaos.add_argument("--partitions", type=int, default=4,
                       help="clade partitions for node-level scenarios "
                            "(default 4)")
    chaos.add_argument("--rf", type=int, default=3,
                       help="replication factor for node-level "
                            "scenarios (default 3)")
    chaos.add_argument("--read-quorum", type=int, default=2,
                       help="read quorum for node-level scenarios "
                            "(default 2)")
    chaos.add_argument("--json", action="store_true",
                       help="emit outcomes and counters as JSON")
    chaos.set_defaults(handler=_cmd_chaos)

    cluster = commands.add_parser(
        "cluster",
        help="shard the overlay into a simulated cluster: topology, "
             "per-node state, --repair / --verify")
    _add_world_options(cluster)
    cluster.add_argument("--nodes", type=int, default=5,
                         help="simulated nodes (default 5)")
    cluster.add_argument("--partitions", type=int, default=4,
                         help="clade-interval partitions (default 4)")
    cluster.add_argument("--rf", type=int, default=3,
                         help="replication factor (default 3)")
    cluster.add_argument("--read-quorum", type=int, default=2,
                         help="replicas per quorum read (default 2)")
    cluster.add_argument("--repair", action="store_true",
                         help="run a merkle anti-entropy pass and "
                              "report it")
    cluster.add_argument("--verify", action="store_true",
                         help="seed a divergence (writes during a "
                              "crash, handoff off), heal, repair, and "
                              "assert convergence + parity")
    cluster.add_argument("--json", action="store_true",
                         help="emit machine-readable output")
    cluster.set_defaults(handler=_cmd_cluster)

    lint = commands.add_parser(
        "lint", help="repository invariant lint rules")
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories (default: src)")
    lint.add_argument("--json", action="store_true",
                      help="emit machine-readable diagnostics")
    lint.add_argument("--sarif", action="store_true",
                      help="emit a SARIF 2.1.0 log")
    lint.add_argument("--rules", action="store_true",
                      help="list the rules and exit")
    lint.set_defaults(handler=_cmd_lint)

    race = commands.add_parser(
        "race",
        help="whole-program concurrency analysis (CONC rules)")
    race.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories (default: src)")
    race.add_argument("--json", action="store_true",
                      help="emit machine-readable findings")
    race.add_argument("--sarif", action="store_true",
                      help="emit a SARIF 2.1.0 log")
    race.add_argument("--rules", action="store_true",
                      help="list the rules and exit")
    race.set_defaults(handler=_cmd_race)

    def _add_durable_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("data_dir",
                         help="durable data directory (bootstrapped "
                              "from the world options when empty)")
        sub.add_argument("--fsync", default="batch",
                         choices=("always", "batch", "never"),
                         help="WAL sync policy (default batch)")
        sub.add_argument("--flush-bytes", type=int, default=64 * 1024,
                         help="memtable bytes per SSTable flush "
                              "(default 65536)")
        sub.add_argument("--json", action="store_true",
                         help="emit machine-readable output")

    compact = commands.add_parser(
        "compact",
        help="major-compact a durable data directory")
    _add_world_options(compact)
    _add_durable_options(compact)
    compact.set_defaults(handler=_cmd_compact)

    recover = commands.add_parser(
        "recover",
        help="reopen a durable data directory and report recovery")
    _add_world_options(recover)
    _add_durable_options(recover)
    recover.set_defaults(handler=_cmd_recover)

    similar = commands.add_parser("similar",
                                  help="similarity search by SMILES")
    _add_world_options(similar)
    similar.add_argument("smiles", help="probe structure")
    similar.add_argument("--threshold", type=float, default=0.6)
    similar.add_argument("--max-rows", type=int, default=15)
    similar.set_defaults(handler=_cmd_similar)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except DrugTreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
