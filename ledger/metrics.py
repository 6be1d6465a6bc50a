"""Names, units, clocks and bounds of every ledger metric.

Two tables. :data:`END_TO_END` is what a user of the system sees;
each row has the bound by which it may worsen before ``--compare``
calls it a regression. :data:`PER_LAYER` is what the traced run
attributes to single layers (``src/repro/<layer>``); those rows have no
bound — they explain an end-to-end movement, they do not gate one.

Clock tags: ``wall`` (real seconds of this process, scaled to the
reference host's speed — see ``ledger.harness``), ``virtual``
(seconds of the program's ``SimulatedClock``: source, link, router and
serving-queue latency), ``mixed`` (virtual + wall, what a user waits),
``count`` (a tally or a ratio of tallies). ``virtual`` and ``count``
rows repeat exactly for the same seed and size; ``wall`` and ``mixed``
rows do not.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("tap_mix", "serve_ramp", "analytic_scan", "durable_rw",
             "cluster_rw")

#: The 12 query kinds ``analytic_scan`` cycles through: the generator's
#: eight plus the four E13 scan families (whose top-k is ``scan_topk``
#: here; the generator already has a ``topk``).
SCAN_FAMILIES = ("scan_agg", "group_by", "filter_project", "scan_topk")
GENERATOR_KINDS = ("subtree_filter", "clade_agg", "organism_filter",
                   "property_range", "topk", "similarity",
                   "substructure", "join")
ANALYTIC_KINDS = GENERATOR_KINDS + SCAN_FAMILIES


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    clock: str                       # wall | virtual | mixed | count
    better: str                      # higher | lower
    #: Relative worsening that counts as a regression (end-to-end only).
    bound: float | None = None
    #: Workloads that report it; empty means all five.
    on: tuple[str, ...] = ()
    #: How host steal enters the row: +1 a time totalled over a phase,
    #: which grows with it, -1 a rate over such a total, which shrinks;
    #: the runner reports both net of the phase's stolen share
    #: (``ledger.harness.Steal``). 0: a percentile, a count, a virtual
    #: time — left as measured.
    steal: int = 0

    def reported_on(self, workload: str) -> bool:
        return not self.on or workload in self.on


#: Rows every workload reports. These are the ``end_to_end`` list of
#: ``BENCHMARK.json``, which needs every metric on every workload and
#: takes one bound per metric, so each bound has to hold on the
#: noisiest workload across *different* seeds (README, "Bounds").
CORE = (
    Metric("setup_s", "s", "wall", "lower", 0.25, steal=1),
    Metric("ops_per_s", "1/s", "wall", "higher", 0.20, steal=-1),
    Metric("op_wall_p50_us", "us", "wall", "lower", 0.25),
    Metric("op_wall_p95_us", "us", "wall", "lower", 0.25),
    Metric("goodput", "ratio", "count", "higher", 0.06),
    Metric("peak_rss_mb", "MB", "wall", "lower", 0.10),
)

#: Rows ``BENCHMARK.json`` cannot carry, most because only some
#: workloads have them. The ledger's own report and ``--compare`` do.
SPECIFIC = (
    # Every workload reports a p99, but across seeds it does not hold
    # still (README, "Bounds"), so the manifest carries the p95.
    Metric("op_wall_p99_us", "us", "wall", "lower", 0.25),
    Metric("failed_share", "ratio", "count", "lower", 0.0),
    Metric("tap_lag_p50_ms", "ms", "mixed", "lower", 0.02, ("tap_mix",)),
    Metric("tap_lag_p99_ms", "ms", "mixed", "lower", 0.05, ("tap_mix",)),
    Metric("bytes_down_per_tap", "bytes", "count", "lower", 0.01,
           ("tap_mix",)),
    Metric("virtual_p99_s", "s", "virtual", "lower", 0.01,
           ("serve_ramp", "cluster_rw")),
    Metric("slo_rate_rps", "1/s", "virtual", "higher", 0.25,
           ("serve_ramp",)),
    Metric("ingest_rows_per_s", "1/s", "wall", "higher", 0.15,
           ("durable_rw",), steal=-1),
    Metric("recover_s", "s", "wall", "lower", 0.25, ("durable_rw",),
           steal=1),
    Metric("write_amp", "ratio", "count", "lower", 0.01,
           ("durable_rw",)),
)

END_TO_END = CORE + SPECIFIC


def _layer(name: str, unit: str, clock: str = "wall",
           better: str = "lower") -> Metric:
    return Metric(name, unit, clock, better)


PER_LAYER = (
    _layer("workloads.loadgen.gen_us_per_req", "us"),
    _layer("workloads.datasets.build_s", "s"),
    _layer("core.integrate.build_s", "s"),
    _layer("serving.admission.decide_us", "us"),
    _layer("serving.admission.shed_share", "ratio", "count"),
    _layer("serving.scheduler.queue_us", "us"),
    _layer("serving.scheduler.mean_queued_virtual_s", "s", "virtual"),
    _layer("serving.cache.get_put_us", "us"),
    _layer("serving.cache.hit_ratio", "ratio", "count", "higher"),
    _layer("serving.cache.cross_tenant_hit_share", "ratio", "count",
           "higher"),
    _layer("serving.frontend.self_us", "us"),
    _layer("serving.frontend.rate_28.p99_s", "s", "virtual"),
    _layer("serving.frontend.rate_68.p99_s", "s", "virtual"),
    _layer("serving.frontend.rate_128.p99_s", "s", "virtual"),
    _layer("serving.frontend.rate_248.p99_s", "s", "virtual"),
    _layer("serving.frontend.calm_p99_s", "s", "virtual"),
    _layer("mobile.server.navigate_us", "us"),
    _layer("mobile.server.query_us", "us"),
    _layer("mobile.server.details_us", "us"),
    _layer("mobile.server.self_us", "us"),
    _layer("mobile.lod.render_us", "us"),
    _layer("mobile.lod.nodes_per_render", "count", "count"),
    _layer("mobile.protocol.encode_us", "us"),
    _layer("mobile.protocol.delta_us", "us"),
    _layer("mobile.protocol.bytes_per_msg", "bytes", "count"),
    _layer("mobile.protocol.delta_share", "ratio", "count", "higher"),
    _layer("mobile.network.virtual_ms_per_tap", "ms", "virtual"),
    _layer("core.query.parser.parse_us", "us"),
    _layer("core.query.parser.tokenize_calls_per_query", "count",
           "count"),
    _layer("analysis.dtql.check_us", "us"),
    _layer("analysis.dtql.checks_per_query", "count", "count"),
    _layer("core.query.cache.lookup_us", "us"),
    _layer("core.query.cache.hit_ratio", "ratio", "count", "higher"),
    _layer("core.query.planner.plan_us", "us"),
    _layer("core.query.adaptive.choose_us", "us"),
    _layer("core.query.adaptive.vectorized_share", "ratio", "count",
           "higher"),
    _layer("core.query.executor.self_us", "us"),
    _layer("core.query.executor.rows_scanned_per_row_returned", "ratio",
           "count"),
    *(_layer(f"core.query.executor.kind.{kind}.p50_us", "us")
      for kind in ANALYTIC_KINDS),
    _layer("storage.index.probes_per_query", "count", "count"),
    _layer("storage.table.insert_us", "us"),
    _layer("storage.durable.wal.append_us", "us"),
    _layer("storage.durable.wal.fsyncs", "count", "count"),
    _layer("storage.durable.wal.bytes_per_row", "bytes", "count"),
    _layer("storage.durable.db.flushes", "count", "count"),
    _layer("storage.durable.db.compactions", "count", "count"),
    _layer("storage.durable.db.flush_s", "s"),
    _layer("storage.durable.db.compact_s", "s"),
    _layer("storage.durable.db.stall_max_ms", "ms"),
    _layer("storage.durable.db.space_amp", "ratio", "count"),
    _layer("sources.scheduler.fetch_us", "us"),
    _layer("sources.scheduler.virtual_s_per_tap", "s", "virtual"),
    _layer("sources.scheduler.roundtrips_per_tap", "count", "count"),
    _layer("sources.scheduler.coalesced_share", "ratio", "count",
           "higher"),
    _layer("cluster.partitioning.shards_contacted_share", "ratio",
           "count"),
    _layer("cluster.router.read_us", "us"),
    _layer("cluster.router.write_us", "us"),
    _layer("cluster.router.virtual_ms_per_read", "ms", "virtual"),
    _layer("cluster.router.read_repairs", "count", "count"),
    _layer("cluster.engine.view_build_us", "us"),
    _layer("cluster.engine.view_rebuild_share", "ratio", "count"),
    _layer("obs.trace_attributed_share", "ratio", "wall", "higher"),
    _layer("obs.trace_overhead_share", "ratio"),
)

BY_NAME = {metric.name: metric for metric in END_TO_END + PER_LAYER}
