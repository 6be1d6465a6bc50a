"""Command-line interface: ``python -m repro <command>``.

Offers the zero-code tour of the system:

* ``info``    — build a synthetic world and print its shape;
* ``query``   — run one DTQL query (optimized or naive);
* ``explain`` — EXPLAIN ANALYZE: annotated plan tree with actuals
  (``--estimate-only`` prints the cost-based plan without executing);
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
* ``race``    — per-class concurrency analysis: unguarded writes in
  lock-owning classes, a class's own locks taken in opposite orders,
  locks held across blocking calls;
* ``chaos``   — replay a mobile tap session under a seeded fault
  scenario with circuit breakers, deadlines, and degradation on;
* ``cluster`` — shard the overlay into a simulated cluster and print
  its topology and node state (``--repair`` / ``--verify``);
* ``compact`` — major-compact a durable data directory (bootstraps
  one from the world options when empty) and print the LSM levels
  before and after;
* ``recover`` — reopen a durable data directory, replay its WAL, and
  print the recovery report plus the restored overlay shape.

Every command builds the same deterministic world from ``--seed``
``--leaves`` ``--ligands``, so results are reproducible and commands
compose (a clade name printed by ``clades`` works in ``query``).

Every ``_cmd_*`` handler builds one JSON-native payload and returns it
with the exit code; it prints no report. :func:`main` prints the
payload once: as JSON under ``--json``, otherwise through the command's
``_text_*`` renderer, which takes what it reports from the payload and
sees the parsed arguments only to echo the request (a scenario name,
the lint paths). Usage errors and progress notes go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from collections.abc import Iterable, Sequence

from repro import obs
from repro.core import EngineConfig, NaiveEngine, QueryEngine
from repro.errors import ChaosError, DrugTreeError
from repro.sources import FetchScheduler
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

class _UsageError(Exception):
    """The command line asked for something that cannot be run (exit 2)."""


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


def _table(headers: Sequence[str], rows: Iterable, title: str = "",
           keys: Sequence[str] | None = None) -> str:
    """*rows* as an aligned table; dict rows give their *keys* cells."""
    table = TextTable(headers, title=title)
    for row in rows:
        table.add_row(*([row[key] for key in keys] if keys else row))
    return table.render()


def _text_verbatim(payload: dict, args: argparse.Namespace) -> None:
    print(payload["text"])


def _cmd_info(args: argparse.Namespace) -> tuple[dict, int]:
    dataset = _build_world(args)
    drugtree, report = dataset.integrate()
    clades = []
    for child in drugtree.tree.root.children:
        if child.is_leaf or not child.name:
            continue
        stats = drugtree.clade_stats(child.name)
        leaves = drugtree.labeling.label_of(child.name).leaf_count
        clades.append([child.name, leaves, int(stats["count"]),
                       stats["mean"], stats["potent_fraction"]])
    return {
        "overlay": str(drugtree),
        "roundtrips": report.roundtrips,
        "virtual_latency_s": report.virtual_latency_s,
        "clades": clades,
    }, 0


def _text_info(payload: dict, args: argparse.Namespace) -> None:
    print(payload["overlay"])
    print(f"integration: {payload['roundtrips']} round-trips, "
          f"{payload['virtual_latency_s']:.2f}s simulated remote latency")
    print(_table(["top-level clade", "leaves", "bindings", "mean pAff",
                  "potent frac"], payload["clades"]))


def _cmd_query(args: argparse.Namespace) -> tuple[dict, int]:
    dataset = _build_world(args)
    drugtree = dataset.drugtree()
    if args.naive:
        result = NaiveEngine(dataset.tree, dataset.registry).execute(
            args.dtql
        )
        cost = (f"{result.roundtrips} round-trips, "
                f"{result.virtual_latency_s:.2f}s simulated latency")
    else:
        result = QueryEngine(drugtree).execute(args.dtql)
        cost = (f"{result.counters.get('rows_scanned', 0)} rows scanned, "
                f"cache: {result.cache_outcome}")
    return {"rows": result.rows[:args.max_rows],
            "row_count": len(result.rows), "cost": cost}, 0


def _text_query(payload: dict, args: argparse.Namespace) -> None:
    for row in payload["rows"]:
        print(row)
    print(f"-- {payload['row_count']} rows ({len(payload['rows'])} shown); "
          f"{payload['cost']}")


@contextlib.contextmanager
def _fresh_observability():
    """Fresh metrics (and whatever tracer the command installs) for one
    command; the process defaults are restored after."""
    previous_tracer = obs.get_tracer()
    previous_metrics = obs.get_metrics()
    obs.set_metrics(obs.MetricsRegistry())
    try:
        yield
    finally:
        obs.set_tracer(previous_tracer)
        obs.set_metrics(previous_metrics)


def _cmd_explain(args: argparse.Namespace) -> tuple[dict, int]:
    dataset = _build_world(args)
    obs.set_tracer(obs.Tracer(clock=dataset.clock))
    engine = QueryEngine(dataset.drugtree(),
                         federation=FetchScheduler(dataset.registry))
    if args.estimate_only:
        return {"text": engine.explain(args.dtql)}, 0
    report = engine.analyze(args.dtql)
    return {**report.as_dict(), "text": report.render()}, 0


def _cmd_stats(args: argparse.Namespace) -> tuple[dict, int]:
    from repro.scenarios import run_representative_session

    dataset = _build_world(args)
    tracer = obs.Tracer(clock=dataset.clock)
    obs.set_tracer(tracer)
    run_representative_session(dataset)
    return {**obs.get_metrics().snapshot(), "spans": tracer.summary()}, 0


def _text_stats(payload: dict, args: argparse.Namespace) -> None:
    print(_table(["counter", "value"], payload["counters"].items(),
                 "Counters"))
    if payload["gauges"]:
        print(_table(["gauge", "value"], payload["gauges"].items(),
                     "\nGauges"))
    print(_table(
        ["histogram", "count", "mean", "min", "max"],
        [(name, data["count"],
          data["sum"] / data["count"] if data["count"] else 0.0,
          data["min"] or 0.0, data["max"] or 0.0)
         for name, data in payload["histograms"].items()],
        "\nHistograms",
    ))
    print(_table(
        ["span", "count", "total wall ms", "total virtual s"],
        [(name, int(agg["count"]), agg["wall_s"] * 1000, agg["virtual_s"])
         for name, agg in sorted(payload["spans"].items())],
        "\nSpans",
    ))


def _cmd_analyze(args: argparse.Namespace) -> tuple[dict, int]:
    dataset = _build_world(args)
    drugtree = dataset.drugtree()
    statistics = drugtree.statistics
    if args.table is not None:
        if args.table not in statistics:
            raise _UsageError(
                f"no such table {args.table!r}; "
                f"known: {', '.join(sorted(statistics))}")
        selected = {args.table: statistics[args.table]}
    else:
        selected = dict(sorted(statistics.items()))
    stale = drugtree.stale_tables()
    return {
        "stats_epoch": drugtree.stats_epoch,
        "stale_tables": sorted(stale),
        "stale_gauge":
            obs.get_metrics().gauge("stats.stale_tables").value,
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
    }, 0


def _text_analyze(payload: dict, args: argparse.Namespace) -> None:
    for name, table in payload["tables"].items():
        rows = []
        for column, stats in table["columns"].items():
            mcvs = ", ".join(f"{value!r}x{count}"
                             for value, count in stats["most_common"][:3])
            bounds = stats["histogram_bounds"]
            if bounds is None:
                edges = "-"
            elif bounds:
                edges = (f"{len(bounds)} buckets "
                         f"[{bounds[0]:g} .. {bounds[-1]:g}]")
            else:
                edges = "empty"
            rows.append((column, stats["row_count"], stats["null_count"],
                         stats["distinct_count"], _brief(stats["min"]),
                         _brief(stats["max"]), mcvs or "-", edges))
        print(_table(["column", "rows", "nulls", "NDV", "min", "max",
                      "top MCVs", "histogram"], rows,
                     f"{name} ({table['row_count']} rows)"))
        print()
    stale = payload["stale_tables"]
    print(f"-- epoch {payload['stats_epoch']}; "
          f"{len(stale)} stale table(s)"
          + (f": {', '.join(stale)}" if stale else ""))


def _brief(value, width: int = 12) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    text = str(value)
    return text if len(text) <= width else text[:width - 1] + "…"


def _cmd_clades(args: argparse.Namespace) -> tuple[dict, int]:
    dataset = _build_world(args)
    drugtree = dataset.drugtree()
    clades = []
    for clade in dataset.family.clade_names[:args.max_rows]:
        label = drugtree.labeling.label_of(clade)
        stats = drugtree.clade_stats(clade)
        clades.append([clade, label.depth, label.leaf_count,
                       int(stats["count"]), stats["mean"], stats["max"]])
    return {"clades": clades}, 0


def _text_clades(payload: dict, args: argparse.Namespace) -> None:
    print(_table(["clade", "depth", "leaves", "bindings", "mean pAff",
                  "max pAff"], payload["clades"]))


def _cmd_tree(args: argparse.Namespace) -> tuple[dict, int]:
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

    return {"text": ascii_tree(drugtree.tree, annotate=annotate,
                               max_depth=args.depth,
                               show_branch_lengths=args.lengths)}, 0


def _cmd_mobile(args: argparse.Namespace) -> tuple[dict, int]:
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
    return {"mean_latency_s": mean(latencies),
            "p95_latency_s": percentile(latencies, 0.95),
            "bytes_down": client.total_bytes_down}, 0


def _text_mobile(payload: dict, args: argparse.Namespace) -> None:
    print(f"{args.gestures}-gesture session on {args.network} "
          f"(LOD={'off' if args.no_lod else 'on'}, "
          f"delta={'off' if args.no_delta else 'on'}):")
    print(f"  mean latency {payload['mean_latency_s']:.3f}s, "
          f"p95 {payload['p95_latency_s']:.3f}s, "
          f"{payload['bytes_down'] / 1024:.1f} KB downloaded")


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


def _cmd_serve(args: argparse.Namespace) -> tuple[dict, int]:
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
    return frontend.run(requests).as_dict(), 0


def _text_serve(payload: dict, args: argparse.Namespace) -> None:
    print(f"{payload['offered']} requests over "
          f"{payload['makespan_s']:.1f}s virtual "
          f"({payload['offered_rps']:.1f} rps offered) — "
          f"policy={args.policy}, "
          f"admission={'off' if args.no_admission else 'on'}, "
          f"SLO {payload['slo_s']:.2f}s")
    print(_table(
        ["tenant", "offered", "shed", "goodput", "p50 s", "p99 s",
         "p99.9 s"],
        [(tenant_id, tenant["offered"], tenant["shed"],
          f"{tenant['goodput']:.3f}", f"{tenant['p50_s']:.3f}",
          f"{tenant['p99_s']:.3f}", f"{tenant['p999_s']:.3f}")
         for tenant_id, tenant in payload["tenants"].items()],
    ))
    cache = payload["cache"]
    if cache:
        print(f"cache: {cache['hits']} hits / "
              f"{cache['misses']} misses "
              f"({cache['cross_tenant_hits']} cross-tenant), "
              f"{cache['saved_virtual_s']:.1f}s virtual saved")
    print(f"goodput {payload['goodput']:.3f} "
          f"({payload['goodput_rps']:.1f} rps within SLO), "
          f"shed rate {payload['shed_rate']:.3f}")


def _cmd_similar(args: argparse.Namespace) -> tuple[dict, int]:
    dataset = _build_world(args)
    drugtree = dataset.drugtree()
    engine = QueryEngine(drugtree)
    dtql = (f"SELECT ligand_id, smiles, molecular_weight, logp "
            f"SIMILAR TO '{args.smiles}' >= {args.threshold}")
    result = engine.execute(dtql)
    return {
        "matches": [[row["ligand_id"], row["smiles"][:40],
                     row["molecular_weight"], row["logp"]]
                    for row in result.rows[:args.max_rows]],
        "matched": len(result.rows),
        "candidates": result.similarity_candidates,
        "ligand_count": drugtree.ligand_count,
    }, 0


def _text_similar(payload: dict, args: argparse.Namespace) -> None:
    print(_table(["ligand", "SMILES", "MW", "logP"], payload["matches"]))
    print(f"-- {payload['matched']} matches; prefilter examined "
          f"{payload['candidates']} of {payload['ligand_count']} "
          "fingerprints")


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


def _cmd_check(args: argparse.Namespace) -> tuple[list, int]:
    # No world is needed: analysis is purely static.
    from repro.analysis import SemanticAnalyzer

    if args.dtql is None and args.file is None:
        raise _UsageError("give a DTQL query or --file")
    if args.dtql is not None:
        queries = [args.dtql]
    else:
        with open(args.file, encoding="utf-8") as handle:
            queries = _extract_dtql_queries(handle.read())
        if not queries:
            raise _UsageError(f"no ```sql blocks in {args.file}")

    analyzer = SemanticAnalyzer()
    reports = [(dtql, analyzer.check(dtql)) for dtql in queries]
    failed = any(report.errors for _, report in reports)
    return [{"query": dtql, **report.as_dict(), "text": report.render()}
            for dtql, report in reports], 1 if failed else 0


def _text_check(payload: list, args: argparse.Namespace) -> None:
    for entry in payload:
        print(f"> {entry['query']}")
        print(entry["text"])
    errors = sum(diagnostic["severity"] == "error" for entry in payload
                 for diagnostic in entry["diagnostics"])
    print(f"-- {len(payload)} quer{'y' if len(payload) == 1 else 'ies'} "
          f"checked, {errors} error(s)")


def _cmd_lint(args: argparse.Namespace) -> tuple[dict | list, int]:
    from repro.analysis import LINT_RULES, lint_paths

    if args.rules:
        return dict(sorted(LINT_RULES.items())), 0
    diagnostics = lint_paths(args.paths)
    return ([diagnostic.as_dict() for diagnostic in diagnostics],
            1 if diagnostics else 0)


def _text_lint(payload: dict | list, args: argparse.Namespace) -> None:
    if args.rules:
        for code, description in payload.items():
            print(f"{code}  {description}")
        return
    for diagnostic in payload:
        print(f"{diagnostic['file']}:{diagnostic['line']}: "
              f"{diagnostic['code']} {diagnostic['message']}")
    print(f"-- {len(payload)} violation(s) in {', '.join(args.paths)}")


def _cmd_race(args: argparse.Namespace) -> tuple[dict, int]:
    from repro.analysis import CONC_RULES, analyze_paths

    if args.rules:
        return {code: {"severity": rule.severity.value,
                       "summary": rule.summary}
                for code, rule in sorted(CONC_RULES.items())}, 0
    result = analyze_paths(args.paths)
    return {
        "findings": [dataclasses.asdict(f) for f in result.findings],
        "summary": result.summary(),
    }, 1 if result.findings else 0


def _text_race(payload: dict, args: argparse.Namespace) -> None:
    if args.rules:
        for code, rule in payload.items():
            print(f"{code}  [{rule['severity']}]  {rule['summary']}")
        return
    for finding in payload["findings"]:
        print(f"{finding['file']}:{finding['line']}: "
              f"{finding['code']} {finding['message']}")
        if finding["hint"]:
            print(f"    hint: {finding['hint']}")
    summary = payload["summary"]
    print(f"-- {len(payload['findings'])} finding(s) in "
          f"{', '.join(args.paths)} "
          f"({summary['shared_classes']} shared classes, "
          f"{summary['guarded_writes']} guarded writes, "
          f"{summary['locks']} locks)")


def _cluster_config(args: argparse.Namespace, **overrides):
    """The quorum geometry ``chaos`` and ``cluster`` share their flags for."""
    from repro.cluster import ClusterConfig

    return ClusterConfig(
        nodes=args.nodes, partitions=args.partitions,
        replication_factor=args.rf, read_quorum=args.read_quorum,
        **overrides,
    )


def _cmd_chaos(args: argparse.Namespace) -> tuple[dict, int]:
    from repro.scenarios import run_scenario
    from repro.sources import BreakerConfig

    run = run_scenario(
        _build_world(args), args.scenario, seed=args.seed,
        taps=args.taps, think_s=args.think_s,
        deadline_s=args.deadline,
        breaker_config=BreakerConfig(
            failure_threshold=args.breaker_threshold,
            reset_timeout_s=args.breaker_reset_s,
        ),
        cluster_config=_cluster_config(args),
    )
    return {**run.payload, "faults": run.faults,
            "breaker_trips": run.breaker_trips,
            "virtual_s": run.virtual_s}, 0


def _text_chaos(payload: dict, args: argparse.Namespace) -> None:
    outcomes = payload["outcomes"]
    router = payload.get("router")  # node-level scenarios only
    answered = (outcomes["answered"] if router
                else args.taps - outcomes["failed"])
    print(f"scenario {args.scenario!r}, seed {args.seed}: "
          f"{args.taps} taps over {payload['virtual_s']:.0f}s virtual"
          + (f" (rf={args.rf}, r={args.read_quorum})" if router else ""))
    for line in payload["faults"]:
        print(f"-- fault: {line}")
    print(_table(["outcome", "taps"], outcomes.items()))
    summary = (f"-- answered {answered}/{args.taps} "
               f"({answered / args.taps:.0%}); "
               f"breaker trips {payload['breaker_trips']}, ")
    breakers = payload["breakers"]
    if router:
        repair = payload["anti_entropy"]
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
        scheduler = payload["scheduler"]
        print(f"{summary}deadline cancels "
              f"{scheduler['deadline_cancelled']}, "
              f"breaker skips {scheduler['breaker_skips']}")
    if breakers:
        print("-- breakers now: " + ", ".join(
            f"{name}={state}" for name, state in breakers.items()))


def _cmd_cluster(args: argparse.Namespace) -> tuple[dict, int]:
    from repro.cluster import ClusterEngine
    from repro.scenarios import run_divergence_repair

    dataset = _build_world(args)
    engine = ClusterEngine.from_drugtree(
        dataset.drugtree(),
        # --verify seeds a divergence; handoff would heal it before
        # anti-entropy gets the chance to.
        cluster_config=_cluster_config(
            args, hinted_handoff=not args.verify),
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
        payload["verify"] = run_divergence_repair(
            dataset, engine, writes=5)
        failures = payload["verify"]["failures"]
    elif args.repair:
        payload["repair"] = router.anti_entropy().as_dict()
    payload["nodes"] = cluster.node_states()
    payload["router"] = router.stats.as_dict()
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return payload, 1 if failures else 0


def _text_cluster(payload: dict, args: argparse.Namespace) -> None:
    verify = payload.get("verify")
    repair = verify["repair"] if verify else payload.get("repair")
    if verify:
        print(f"seeded divergence: crashed {verify['victim']}, "
              f"5 writes during the window, "
              f"{verify['divergent_keys_before']} divergent "
              "keys after heal")
        print(f"anti-entropy: rounds {repair['rounds']}, keys "
              f"repaired {repair['keys_repaired']}, converged "
              f"{repair['converged']}")
        print(f"parity: {verify['parity_checks']} checks vs "
              "single-node engine "
              f"{'ok' if not verify['failures'] else 'FAILED'}")
    elif repair:
        print(f"anti-entropy: rounds {repair['rounds']}, "
              f"keys repaired {repair['keys_repaired']}, "
              f"entries pushed {repair['entries_pushed']}, "
              f"converged {repair['converged']}")
    print(_table(
        ["partition", "clade", "interval", "replicas"],
        [(f"p{row['pid']}", row["clade"], row["interval"],
          ", ".join(row["replicas"])) for row in payload["topology"]],
        "Topology",
    ))
    print(_table(["node", "status", "keys", "hints", "rpcs", "failed"],
                 payload["nodes"], "\nNodes",
                 keys=["node", "status", "keys", "hints", "rpcs",
                       "failed_rpcs"]))
    geometry = _cluster_config(args)
    print(f"-- quorums: rf={geometry.replication_factor} "
          f"r={geometry.read_quorum} w={geometry.write_quorum} "
          f"({'strong' if geometry.strongly_consistent else 'eventual'}"
          " consistency)")


def _durable_config(args: argparse.Namespace):
    from repro.storage.durable import StorageConfig

    return StorageConfig(
        durable=True, data_dir=args.data_dir, fsync=args.fsync,
        memtable_flush_bytes=args.flush_bytes,
    )


def _ensure_durable_world(args: argparse.Namespace) -> None:
    """Populate ``args.data_dir`` from the world options when it's empty.

    An existing MANIFEST marks an adopted store; otherwise the standard
    deterministic world is integrated in durable mode and flushed, so
    ``compact``/``recover`` always have something real to chew on.
    """
    if os.path.exists(os.path.join(args.data_dir, "MANIFEST.json")):
        return
    print(f"-- no manifest in {args.data_dir}; bootstrapping a durable "
          f"world (leaves={args.leaves}, ligands={args.ligands}, "
          f"seed={args.seed})", file=sys.stderr)
    drugtree, _ = _build_world(args).integrate(
        storage=_durable_config(args))
    drugtree.close()


_LEVEL_KEYS = ["level", "segments", "keys", "tombstones", "bytes"]


def _cmd_compact(args: argparse.Namespace) -> tuple[dict, int]:
    from repro.storage.durable import Database

    _ensure_durable_world(args)
    database = Database.open(args.data_dir, _durable_config(args))
    before = database.level_stats()
    database.compact()
    after = database.level_stats()
    database.close()
    return {
        "before": before,
        "after": after,
        "tombstones_collected": int(obs.get_metrics().counter_values().get(
            "lsm.tombstones_collected", 0)),
    }, 0


def _text_compact(payload: dict, args: argparse.Namespace) -> None:
    before, after = payload["before"], payload["after"]
    print(_table(_LEVEL_KEYS, before, "Before", keys=_LEVEL_KEYS))
    print(_table(_LEVEL_KEYS, after, "\nAfter", keys=_LEVEL_KEYS))
    print(f"-- major compaction: "
          f"{sum(r['segments'] for r in before)} segment(s) -> "
          f"{sum(r['segments'] for r in after)}, "
          f"{payload['tombstones_collected']} tombstone(s) collected")


def _cmd_recover(args: argparse.Namespace) -> tuple[dict, int]:
    from repro.core import DrugTree

    _ensure_durable_world(args)
    dataset = _build_world(args)
    drugtree = DrugTree(dataset.tree, storage=_durable_config(args))
    database = drugtree.database
    payload = {
        "recovery": database.recovery.as_dict(),
        "segments": [s.as_row() for s in database.segments],
        "tables": {name: table.row_count
                   for name, table in drugtree.tables.items()},
        "overlay": str(drugtree),
    }
    drugtree.close()
    return payload, 0


def _text_recover(payload: dict, args: argparse.Namespace) -> None:
    report = payload["recovery"]
    print(f"-- recovered {args.data_dir}: "
          f"{report['segments']} segment(s), "
          f"{report['wal_records']} WAL record(s) replayed, "
          f"{report['torn_bytes']} torn byte(s) truncated, "
          f"{report['orphans_removed']} orphan(s) removed")
    keys = ["id", "level", "keys", "tombstones", "bytes"]
    print(_table(keys, payload["segments"], "Segments", keys=keys))
    print(_table(["table", "rows"], sorted(payload["tables"].items()),
                 "\nRestored overlay"))
    print(payload["overlay"])


def _cmd_export(args: argparse.Namespace) -> tuple[dict, int]:
    from repro.workloads import export_dataset

    paths = export_dataset(_build_world(args), args.directory)
    return {name: str(path) for name, path in paths.items()}, 0


def _text_export(payload: dict, args: argparse.Namespace) -> None:
    for name, path in sorted(payload.items()):
        print(f"{name:10s} {path}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DrugTree reproduction (SIGMOD 2013) command line",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, text, *, world=True, json_help=None,
                **kwargs) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, **kwargs)
        if world:
            _add_world_options(sub)
        if json_help:
            sub.add_argument("--json", action="store_true", help=json_help)
        sub.set_defaults(handler=handler, text=text)
        return sub

    command("info", _cmd_info, _text_info, help="world summary")

    query = command("query", _cmd_query, _text_query,
                    help="run one DTQL query")
    query.add_argument("dtql", help="query text, e.g. "
                       "\"SELECT count(*) FROM bindings\"")
    query.add_argument("--naive", action="store_true",
                       help="use the unoptimized federated engine")
    query.add_argument("--max-rows", type=int, default=20)

    explain = command(
        "explain", _cmd_explain, _text_verbatim,
        json_help="emit the analyze report as JSON",
        help="EXPLAIN ANALYZE one DTQL query (plan tree + actuals)")
    explain.add_argument("dtql", help="query text to analyze")
    explain.add_argument("--estimate-only", action="store_true",
                         help="print the cost-based plan, do not execute")

    command("stats", _cmd_stats, _text_stats,
            json_help="emit the metrics snapshot as JSON",
            help="run a representative workload, print metrics + spans")

    analyze = command(
        "analyze", _cmd_analyze, _text_analyze,
        json_help="emit the statistics as JSON",
        help="ANALYZE the tables, print optimizer statistics")
    analyze.add_argument("--table", default=None,
                         help="restrict to one table (default: all)")

    clades = command("clades", _cmd_clades, _text_clades,
                     help="materialized clade statistics")
    clades.add_argument("--max-rows", type=int, default=25)

    tree = command("tree", _cmd_tree, _text_verbatim,
                   help="draw the annotated tree")
    tree.add_argument("--depth", type=int, default=None,
                      help="collapse below this depth")
    tree.add_argument("--lengths", action="store_true",
                      help="show branch lengths")

    mobile = command("mobile", _cmd_mobile, _text_mobile,
                     help="replay a mobile session")
    mobile.add_argument("--network", default="3g",
                        choices=("edge", "3g", "hspa", "lte", "wifi"))
    mobile.add_argument("--gestures", type=int, default=15)
    mobile.add_argument("--no-lod", action="store_true")
    mobile.add_argument("--no-delta", action="store_true")

    serve = command(
        "serve", _cmd_serve, _text_serve,
        json_help="print the full report as JSON",
        help="open-loop multi-tenant serving run with SLO report")
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

    export = command("export", _cmd_export, _text_export,
                     help="write the world in interchange formats")
    export.add_argument("directory", help="output directory")

    check = command(
        "check", _cmd_check, _text_check, world=False,
        json_help="emit machine-readable diagnostics",
        help="static semantic analysis of DTQL (no execution)")
    check.add_argument("dtql", nargs="?", default=None,
                       help="query text to analyze")
    check.add_argument("--file", default=None,
                       help="markdown file whose ```sql blocks to check")

    def add_cluster_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--nodes", type=int, default=5,
                         help="simulated nodes (default 5)")
        sub.add_argument("--partitions", type=int, default=4,
                         help="clade-interval partitions (default 4)")
        sub.add_argument("--rf", type=int, default=3,
                         help="replication factor (default 3)")
        sub.add_argument("--read-quorum", type=int, default=2,
                         help="replicas per quorum read (default 2)")

    chaos = command(
        "chaos", _cmd_chaos, _text_chaos,
        json_help="emit outcomes and counters as JSON",
        help="replay taps under a seeded fault scenario (source-level: "
             "calm, blackout, flaky, rushhour, cascade; node-level: "
             "node_calm, node_crash, split_brain, slow_node, which "
             "shard the world by the cluster options)")
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
    add_cluster_options(chaos)

    cluster = command(
        "cluster", _cmd_cluster, _text_cluster,
        json_help="emit machine-readable output",
        help="shard the overlay into a simulated cluster: topology, "
             "per-node state, --repair / --verify")
    add_cluster_options(cluster)
    cluster.add_argument("--repair", action="store_true",
                         help="run a merkle anti-entropy pass and "
                              "report it")
    cluster.add_argument("--verify", action="store_true",
                         help="seed a divergence (writes during a "
                              "crash, handoff off), heal, repair, and "
                              "assert convergence + parity")

    for name, handler, text, summary in (
        ("lint", _cmd_lint, _text_lint,
         "repository invariant lint rules"),
        ("race", _cmd_race, _text_race,
         "per-class concurrency analysis (CONC rules)"),
    ):
        sub = command(name, handler, text, world=False, help=summary,
                      json_help="emit machine-readable findings")
        sub.add_argument("paths", nargs="*", default=["src"],
                         help="files or directories (default: src)")
        sub.add_argument("--rules", action="store_true",
                         help="list the rules and exit")

    for name, handler, text, summary in (
        ("compact", _cmd_compact, _text_compact,
         "major-compact a durable data directory"),
        ("recover", _cmd_recover, _text_recover,
         "reopen a durable data directory and report recovery"),
    ):
        sub = command(name, handler, text, help=summary,
                      json_help="emit machine-readable output")
        sub.add_argument("data_dir",
                         help="durable data directory (bootstrapped "
                              "from the world options when empty)")
        sub.add_argument("--fsync", default="batch",
                         choices=("always", "batch", "never"),
                         help="WAL sync policy (default batch)")
        sub.add_argument("--flush-bytes", type=int, default=64 * 1024,
                         help="memtable bytes per SSTable flush "
                              "(default 65536)")

    similar = command("similar", _cmd_similar, _text_similar,
                      help="similarity search by SMILES")
    similar.add_argument("smiles", help="probe structure")
    similar.add_argument("--threshold", type=float, default=0.6)
    similar.add_argument("--max-rows", type=int, default=15)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _fresh_observability():
            payload, code = args.handler(args)
    except (_UsageError, ChaosError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DrugTreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        args.text(payload, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
