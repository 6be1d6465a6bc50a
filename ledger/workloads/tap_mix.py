"""tap_mix — the paper's user: one phone on 3G tapping through the tree.

Closed loop, one client. The load generator's gesture stream for one
tenant (~70 % render, ~17 % query, ~12 % details, zipf-skewed clades)
is replayed in arrival order straight into ``DrugTreeServer``: one
server session per generated session, each response charged to a
``3g`` ``NetworkLink`` exactly as ``MobileClient._receive`` does.
``repro.serving`` is bypassed entirely, scans are tiny; parse ->
analyze -> plan, LOD, encode/delta/zlib and the semantic cache do the
work. Opening a session is an op of its own (kind ``open``): the phone
downloads that first render too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core import NaiveEngine
from repro.core.query.parser import parse_query
from repro.errors import DrugTreeError
from repro.mobile.client import REQUEST_BYTES
from repro.mobile.lod import render_viewport
from repro.mobile.network import NetworkLink, get_profile
from repro.mobile.protocol import KIND_DELTA, apply_delta
from repro.mobile.server import DrugTreeServer, ServerConfig
from repro.obs import get_metrics
from repro.sources.scheduler import FetchScheduler
from repro.workloads import (
    DatasetConfig,
    LoadConfig,
    TenantLoad,
    build_dataset,
    generate_load,
)

from ledger import harness, layers

NAME = "tap_mix"
WHY = ("one phone on 3g replaying the load generator's gesture mix into "
       "the mobile server: parse/analyze/plan, LOD, framing and the "
       "semantic cache dominate; serving is bypassed, scans are tiny")

WORLD = DatasetConfig(n_leaves=150, n_ligands=200, seed=1101)
TINY_WORLD = DatasetConfig(n_leaves=24, n_ligands=30, seed=1101)
GESTURES_PER_S = 20.0
#: Virtual seconds of traffic generated per second of run budget; at
#: ~2k taps per wall second that is about one budget second of work.
VIRTUAL_S_PER_BUDGET_S = 100.0
TAP_DEADLINE_S = 0.5
#: Distinct query taps compared with the naive engine.
ORACLE_QUERIES = 200
#: Every n-th session has its deltas re-applied and compared with a
#: direct render (every message of every session is decoded).
ORACLE_SESSION_STRIDE = 4


@dataclass
class Tap:
    kind: str            # open | render | query | details
    session: str
    target: str
    wall_ns: int
    virtual_s: float     # sources + link, charged to the shared clock
    message: object


@dataclass
class World:
    seed: int
    dataset: object
    drugtree: object
    server: DrugTreeServer
    link: NetworkLink
    requests: list
    setup_roundtrips: float

    @property
    def inputs(self) -> list:
        return self.requests


@dataclass
class Out:
    taps: list[Tap] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Source round-trips the taps caused (read before the oracle,
    #: which queries the same registry, adds its own).
    roundtrips: float = 0.0
    problems: list[str] = field(default_factory=list)

    def timed(self) -> list[Tap]:
        return self.taps[harness.warmup_count(len(self.taps)):]


def setup(seed: int, size: harness.Size, work) -> World:
    dataset = build_dataset(TINY_WORLD if size.tiny else WORLD)
    drugtree = dataset.drugtree()
    requests = generate_load(
        dataset.family.clade_names, dataset.family.protein_ids,
        LoadConfig(tenants=(TenantLoad("lab", GESTURES_PER_S),),
                   duration_s=VIRTUAL_S_PER_BUDGET_S * size.seconds,
                   seed=seed))
    requests.sort(key=lambda request: (request.arrival_s, request.seq))
    server = DrugTreeServer(
        drugtree, ServerConfig(tap_deadline_s=TAP_DEADLINE_S),
        federation=FetchScheduler(dataset.registry))
    link = NetworkLink(get_profile("3g"), dataset.clock, seed=seed)
    return World(seed, dataset, drugtree, server, link, requests,
                 dataset.registry.combined_stats()["roundtrips"])


def run(world: World, watch: harness.Stopwatch) -> Out:
    out = Out()
    server, link, clock = world.server, world.link, world.dataset.clock
    calls = {"render": server.navigate, "query": server.query,
             "details": server.protein_details}
    sessions: dict[str, str] = {}

    def tap(kind: str, session: str, target: str, call, *args):
        out.attempted += 1
        before = clock.now()
        try:
            result, wall_ns = watch.timed(call, *args)
        except DrugTreeError as error:
            out.failed += 1
            out.problems.append(f"{kind} {target!r}: {error}")
            return None
        response = result[1] if kind == "open" else result
        link.exchange(REQUEST_BYTES, response.message.wire_bytes)
        out.taps.append(Tap(kind, session, target, wall_ns,
                            clock.now() - before, response.message))
        return result

    for request in world.requests:
        session_id = sessions.get(request.session)
        if session_id is None:
            opened = tap("open", request.session, "",
                         server.open_session)
            if opened is None:
                continue
            session_id = sessions[request.session] = opened[0]
        tap(request.kind, request.session, request.target,
            calls[request.kind], session_id, request.target)
    out.roundtrips = (world.dataset.registry.combined_stats()["roundtrips"]
                      - world.setup_roundtrips)
    return out


def end_to_end(world: World, out: Out) -> dict[str, dict]:
    timed = out.timed()
    walls = [tap.wall_ns for tap in timed]
    rows = harness.wall_rows(walls)
    # What the user waits per tap: virtual (sources + link) + wall.
    lags = sorted(tap.virtual_s + tap.wall_ns / 1e9 for tap in timed)
    fraction = harness.tail_fraction(len(lags))
    rows["tap_lag_p50_ms"] = harness.row(
        harness.percentile(lags, 0.5) * 1e3, n=len(lags))
    rows["tap_lag_p99_ms"] = harness.row(
        harness.percentile(lags, fraction) * 1e3, n=len(lags),
        pct=fraction)
    rows.update(harness.outcome_rows(out.attempted, out.failed))
    rows["bytes_down_per_tap"] = harness.row(
        sum(tap.message.wire_bytes for tap in timed) / len(timed),
        n=len(timed))
    return rows


# -- oracle -------------------------------------------------------------------

def check(world: World, out: Out) -> list[str]:
    problems = list(out.problems)
    problems += _check_views(world, out)
    problems += _check_queries(world, out)
    return problems


def _check_views(world: World, out: Out) -> list[str]:
    """Every message decodes; on sampled sessions the client-side state
    (deltas applied in order) equals a direct render of the focus."""
    problems = []
    config = world.server.config
    replayed: dict[str, dict | None] = {}
    for index, tap in enumerate(out.taps):
        try:
            payload = tap.message.payload()
        except DrugTreeError as error:
            problems.append(f"tap {index} does not decode: {error}")
            continue
        if tap.kind == "open":
            if len(replayed) % ORACLE_SESSION_STRIDE == 0:
                replayed[tap.session] = {}
            else:
                replayed[tap.session] = None
        state = replayed.get(tap.session)
        if state is None or tap.kind not in ("open", "render"):
            continue
        if tap.message.kind == KIND_DELTA:
            state = apply_delta(state, payload)
        else:
            state = payload
        replayed[tap.session] = state
        focus = payload["focus"] if tap.kind == "open" else tap.target
        expected = render_viewport(world.drugtree, focus,
                                   max_depth=config.lod_max_depth,
                                   max_nodes=config.lod_max_nodes)
        if state != expected:
            problems.append(
                f"tap {index}: client state after {tap.message.kind} "
                f"differs from a direct render of {focus!r}")
    return problems


def _check_queries(world: World, out: Out) -> list[str]:
    """A seeded sample of distinct query taps against NaiveEngine."""
    first: dict[str, Tap] = {}
    for tap in out.taps:
        if tap.kind == "query":
            first.setdefault(tap.target, tap)
    texts = sorted(first)
    sample = random.Random(world.seed).sample(
        texts, min(ORACLE_QUERIES, len(texts)))
    naive = NaiveEngine(world.dataset.tree, world.dataset.registry)
    problems = []
    for text in sample:
        query = parse_query(text)
        got = first[text].message.payload()["rows"]
        if not harness.same_rows(got, naive.execute(query).rows,
                                 harness.order_column(query)):
            problems.append(f"query tap differs from naive: {text}")
    return problems


# -- layers -------------------------------------------------------------------

def per_layer(world: World, out: Out, tracer, tallies) -> dict[str, float]:
    taps = len(out.taps)
    counters = get_metrics().counter_values()
    rows = layers.setup_rows(tracer.setup_spans, len(world.requests))
    rows.update(layers.query_rows(tracer, tallies))
    rows.update(layers.mobile_rows(tracer, tallies, counters))
    rows.update(layers.source_rows(tracer, [world.server.federation],
                                   out.roundtrips, taps))
    rows["mobile.network.virtual_ms_per_tap"] = layers.ratio(
        world.link.stats.transfer_time_s * 1e3, world.link.stats.requests)
    return rows
