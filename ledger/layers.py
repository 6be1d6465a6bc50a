"""Per-layer rows shared by more than one workload.

Each function turns what the traced run recorded — folded spans from
:class:`ledger.trace.Tracer`, tallies taken from return values at the
recorders (:class:`Tallies`), and the program's own public counters
(``MetricsRegistry``, scheduler/router/link stats) — into rows of
``ledger.metrics.PER_LAYER``. A layer a workload never enters simply
contributes nothing; the runner reports those rows as 0.
"""

from __future__ import annotations

from ledger.trace import Tracer

EXECUTE = "core.query.executor.execute"
_SERVER_SPANS = ("mobile.server.open_session", "mobile.server.navigate",
                 "mobile.server.query", "mobile.server.protein_details")


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Tallies:
    """Counts read off return values where the work happens."""

    def __init__(self, tracer: Tracer) -> None:
        self.planned = 0          # executes that built and ran a plan
        self.vectorized = 0
        self.rows_scanned = 0
        self.rows_returned = 0
        self.index_probes = 0
        self.cache_lookups = 0
        self.cache_hits = 0
        self.renders = 0
        self.nodes_rendered = 0
        self.views = 0            # view messages shipped (open/navigate)
        self.deltas = 0
        taps = tracer.on_return
        taps[EXECUTE].append(self._executed)
        taps["core.query.cache.lookup"].append(self._looked_up)
        taps["mobile.lod.render_viewport"].append(self._rendered)
        taps["mobile.server.navigate"].append(self._shipped_view)
        taps["mobile.server.open_session"].append(
            lambda opened: self._shipped_view(opened[1]))

    def _executed(self, result) -> None:
        if result.plan is None:
            return  # cache hit or analyzer short-circuit: nothing ran
        counters = result.counters
        self.planned += 1
        self.vectorized += bool(counters.get("batches_emitted"))
        self.rows_scanned += counters.get("rows_scanned", 0)
        self.rows_returned += len(result.rows)
        self.index_probes += counters.get("index_probes", 0)

    def _looked_up(self, hit) -> None:
        self.cache_lookups += 1
        self.cache_hits += hit is not None

    def _rendered(self, payload) -> None:
        self.renders += 1
        self.nodes_rendered += len(payload["nodes"])

    def _shipped_view(self, response) -> None:
        self.views += 1
        self.deltas += response.message.kind == "delta"


def setup_rows(setup_spans: dict, n_requests: int = 0) -> dict[str, float]:
    """Set-up layers, from the spans folded while the traced phase set
    up (what ``Tracer.end_setup()`` set aside before the first op)."""
    total_ns = setup_spans["total_ns"]
    return {
        "workloads.loadgen.gen_us_per_req": ratio(
            total_ns.get("workloads.loadgen.generate_load", 0) / 1e3,
            n_requests),
        "workloads.datasets.build_s":
            total_ns.get("workloads.datasets.build_dataset", 0) / 1e9,
        "core.integrate.build_s":
            total_ns.get("core.integrate.build_drugtree", 0) / 1e9,
    }


def query_rows(tracer: Tracer, tallies: Tallies) -> dict[str, float]:
    """parse -> analyze -> cache -> plan -> choose -> execute."""
    executes = tracer.calls.get(EXECUTE, 0)
    return {
        "core.query.parser.parse_us": tracer.self_us_per(
            ("core.query.parser.parse_query",
             "core.query.parser.tokenize")),
        "core.query.parser.tokenize_calls_per_query": ratio(
            tracer.calls.get("core.query.parser.tokenize", 0), executes),
        "analysis.dtql.check_us":
            tracer.self_us_per("analysis.dtql.check"),
        "analysis.dtql.checks_per_query": ratio(
            tracer.calls.get("analysis.dtql.check", 0), executes),
        "core.query.cache.lookup_us": tracer.self_us_per(
            ("core.query.cache.lookup", "core.query.cache.store")),
        "core.query.cache.hit_ratio": ratio(tallies.cache_hits,
                                            tallies.cache_lookups),
        "core.query.planner.plan_us":
            tracer.self_us_per("core.query.planner.plan"),
        "core.query.adaptive.choose_us":
            tracer.self_us_per("core.query.adaptive.choose_engine"),
        "core.query.adaptive.vectorized_share": ratio(
            tallies.vectorized, tallies.planned),
        "core.query.executor.self_us": tracer.self_us_per(EXECUTE),
        "core.query.executor.rows_scanned_per_row_returned": ratio(
            tallies.rows_scanned, tallies.rows_returned),
        "storage.index.probes_per_query": ratio(tallies.index_probes,
                                                tallies.planned),
        "storage.table.insert_us":
            tracer.self_us_per("storage.table.insert"),
    }


def mobile_rows(tracer: Tracer, tallies: Tallies, counters: dict,
                ) -> dict[str, float]:
    """Server entry points, LOD and framing. The three per-kind rows
    are *inclusive* (what one such tap costs end to end inside the
    server); ``self_us`` is the server layer's own share per call."""
    def inclusive_us(span: str) -> float:
        return ratio(tracer.total_ns.get(span, 0) / 1e3,
                     tracer.calls.get(span, 0))
    server_calls = sum(tracer.calls.get(span, 0)
                       for span in _SERVER_SPANS)
    return {
        "mobile.server.navigate_us":
            inclusive_us("mobile.server.navigate"),
        "mobile.server.query_us": inclusive_us("mobile.server.query"),
        "mobile.server.details_us":
            inclusive_us("mobile.server.protein_details"),
        "mobile.server.self_us": ratio(
            sum(tracer.self_ns.get(span, 0)
                for span in _SERVER_SPANS) / 1e3, server_calls),
        "mobile.lod.render_us":
            tracer.self_us_per("mobile.lod.render_viewport"),
        "mobile.lod.nodes_per_render": ratio(tallies.nodes_rendered,
                                             tallies.renders),
        "mobile.protocol.encode_us":
            tracer.self_us_per("mobile.protocol.full_message"),
        "mobile.protocol.delta_us":
            tracer.self_us_per("mobile.protocol.delta_message"),
        "mobile.protocol.bytes_per_msg": ratio(
            counters.get("mobile.bytes_shipped", 0),
            counters.get("mobile.responses", 0)),
        "mobile.protocol.delta_share": ratio(tallies.deltas,
                                             tallies.views),
    }


def source_rows(tracer: Tracer, schedulers: list, roundtrips: float,
                taps: int) -> dict[str, float]:
    """The federation as the servers' fetch schedulers saw it."""
    stats = [scheduler.stats for scheduler in schedulers]
    fetch_spans = ("sources.scheduler.fetch_all_resilient",
                   "sources.scheduler.fetch_all")
    fetches = sum(tracer.calls.get(span, 0) for span in fetch_spans)
    return {
        "sources.scheduler.fetch_us": ratio(
            sum(tracer.self_ns.get(span, 0)
                for span in fetch_spans) / 1e3, fetches),
        "sources.scheduler.virtual_s_per_tap": ratio(
            sum(each.elapsed_virtual_s for each in stats), taps),
        "sources.scheduler.roundtrips_per_tap": ratio(roundtrips, taps),
        "sources.scheduler.coalesced_share": ratio(
            sum(each.coalesced for each in stats),
            sum(each.keys_requested for each in stats)),
    }
