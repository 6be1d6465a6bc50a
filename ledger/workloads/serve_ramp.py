"""serve_ramp — the serving frontend across four fixed offered rates.

Open loop in virtual time: arrivals are scheduled by the load
generator and never wait for completions, the generator is exactly on
time by construction (lateness 0), and latency runs from arrival. Two
tenants, ``calm`` at 8 rps and ``flood`` at 20 / 60 / 120 / 240 rps,
give offered rates of 28 / 68 / 128 / 248 rps against two virtual
workers with a 0.5 s SLO, admission control and the shared cache front
on. Admission, WFQ and the cache front do most of the work; at 248 rps
most decisions are sheds or hits, so the engine does little. It is the
only workload where SLO goodput and the rate knee exist.

Each rate gets a fresh server, fetch scheduler and frontend over one
shared world (a fresh world per rate reads the same, virtual numbers
included, and quadruples set-up).

An op is one decided request (served, shed or failed) and ``ops_per_s``
is decisions over the wall time inside ``ServingFrontend.run``. The
frontend gives no per-request wall time, so the wall percentiles are
taken where the harness can stand: around the server entry points the
frontend calls for a request that got past admission and the cache
front (:class:`TimedServer`). Every cell starts with a cold cache front
by design, so there is no unmeasured warm-up here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mobile.server import DrugTreeServer, ServerConfig
from repro.obs import get_metrics
from repro.serving import (
    AdmissionConfig,
    FrontendConfig,
    ServingFrontend,
    TenantConfig,
)
from repro.sources.scheduler import FetchScheduler
from repro.workloads import (
    DatasetConfig,
    LoadConfig,
    TenantLoad,
    build_dataset,
    generate_load,
)

from ledger import harness, layers

NAME = "serve_ramp"
WHY = ("open-loop two-tenant traffic at 28/68/128/248 rps through "
       "admission, WFQ and the cache front: the only workload with an "
       "SLO knee; most decisions are hits or sheds, the engine idles")

WORLD = DatasetConfig(n_leaves=150, n_ligands=200, seed=1101)
TINY_WORLD = DatasetConfig(n_leaves=24, n_ligands=30, seed=1101)
CALM_RPS = 8.0
FLOOD_RPS = (20.0, 60.0, 120.0, 240.0)
SLO_S = 0.5
WORKERS = 2
#: Virtual seconds offered at each rate per second of run budget
#: (472 requests per virtual second over the four rates).
VIRTUAL_S_PER_BUDGET_S = 10.0
#: ``goodput`` is read at the highest rate, ``virtual_p99_s`` here.
KNEE_RATE = 128
SLO_GOODPUT = 0.99
CALM_GOODPUT_FLOOR = 0.95


class TimedServer:
    """The server as the frontend sees it, with the harness's clock
    around each entry point. Everything else is the server's own."""

    def __init__(self, server: DrugTreeServer) -> None:
        self._server = server
        self.watch: harness.Stopwatch | None = None   # set by run()
        self.wall_ns: list[int] = []

    def __getattr__(self, name: str):
        return getattr(self._server, name)

    def _timed(self, call, *args):
        result, nanos = self.watch.timed(call, *args)
        self.wall_ns.append(nanos)
        return result

    def open_session(self):
        return self._timed(self._server.open_session)

    def navigate(self, session_id: str, focus: str):
        return self._timed(self._server.navigate, session_id, focus)

    def query(self, session_id: str, dtql: str):
        return self._timed(self._server.query, session_id, dtql)

    def protein_details(self, session_id: str, protein_id: str):
        return self._timed(self._server.protein_details, session_id,
                           protein_id)


@dataclass
class Cell:
    """One offered rate: its stack and its request stream."""

    rate: int
    server: TimedServer
    scheduler: FetchScheduler
    frontend: ServingFrontend
    requests: list


@dataclass
class World:
    dataset: object
    cells: list[Cell]
    setup_roundtrips: float

    @property
    def inputs(self) -> list:
        return [cell.requests for cell in self.cells]


@dataclass
class Out:
    reports: dict[int, object] = field(default_factory=dict)
    run_ns: dict[int, int] = field(default_factory=dict)
    roundtrips: float = 0.0
    attempted: int = 0
    failed: int = 0

    @property
    def wall_ns_total(self) -> int:
        return sum(self.run_ns.values())


def setup(seed: int, size: harness.Size, work) -> World:
    dataset = build_dataset(TINY_WORLD if size.tiny else WORLD)
    drugtree = dataset.drugtree()
    cells = []
    for flood in FLOOD_RPS:
        scheduler = FetchScheduler(dataset.registry)
        server = TimedServer(DrugTreeServer(
            drugtree,
            # Delta frames belong to one session; serving shares full
            # renders through the cache front instead.
            ServerConfig(use_delta=False, tap_deadline_s=SLO_S),
            federation=scheduler))
        frontend = ServingFrontend(
            server, dataset.clock,
            FrontendConfig(workers=WORKERS, slo_s=SLO_S,
                           admission=AdmissionConfig(slo_s=SLO_S,
                                                     headroom=0.5)),
            tenants=[TenantConfig("calm"), TenantConfig("flood")])
        requests = generate_load(
            dataset.family.clade_names, dataset.family.protein_ids,
            LoadConfig(tenants=(TenantLoad("calm", CALM_RPS),
                                TenantLoad("flood", flood)),
                       duration_s=VIRTUAL_S_PER_BUDGET_S * size.seconds,
                       think_mean_s=0.5, seed=seed))
        cells.append(Cell(int(CALM_RPS + flood), server, scheduler,
                          frontend, requests))
    return World(dataset, cells,
                 dataset.registry.combined_stats()["roundtrips"])


def run(world: World, watch: harness.Stopwatch) -> Out:
    out = Out()
    for cell in world.cells:
        cell.server.watch = watch
        report, nanos = watch.timed(cell.frontend.run, cell.requests)
        out.reports[cell.rate] = report
        out.run_ns[cell.rate] = nanos
        out.attempted += report.offered
        out.failed += sum(tenant.failed
                          for tenant in report.tenants.values())
    out.roundtrips = (world.dataset.registry.combined_stats()["roundtrips"]
                      - world.setup_roundtrips)
    return out


def _worst_p99_s(report) -> float:
    return max(tenant.p99_s for tenant in report.tenants.values())


def end_to_end(world: World, out: Out) -> dict[str, dict]:
    server_ns = [nanos for cell in world.cells
                 for nanos in cell.server.wall_ns]
    rows = harness.wall_rows(server_ns)
    rows["ops_per_s"] = harness.row(
        out.attempted / (out.wall_ns_total / 1e9), n=out.attempted)
    shed = sum(report.shed for report in out.reports.values())
    peak = out.reports[max(out.reports)]
    rows["failed_share"] = harness.row(
        (out.failed + shed) / out.attempted, n=out.attempted)
    rows["goodput"] = harness.row(peak.goodput, n=peak.offered)
    rows["virtual_p99_s"] = harness.row(
        _worst_p99_s(out.reports[KNEE_RATE]))
    rows["slo_rate_rps"] = harness.row(float(max(
        (rate for rate, report in out.reports.items()
         if report.goodput >= SLO_GOODPUT), default=0)))
    return rows


def check(world: World, out: Out) -> list[str]:
    """Nothing is lost between the door and the report, and the polite
    tenant rides through the whole ramp inside its SLO."""
    problems = []
    for rate, report in out.reports.items():
        for tenant in report.tenants.values():
            decided = tenant.completed + tenant.shed + tenant.failed
            if decided != tenant.offered:
                problems.append(
                    f"{rate} rps, {tenant.tenant}: offered "
                    f"{tenant.offered} but decided {decided}")
            if tenant.failed:
                problems.append(
                    f"{rate} rps, {tenant.tenant}: {tenant.failed} "
                    "requests failed")
        calm = report.tenants["calm"]
        if calm.goodput < CALM_GOODPUT_FLOOR:
            problems.append(f"{rate} rps: calm goodput {calm.goodput:.3f}"
                            f" is under {CALM_GOODPUT_FLOOR}")
    return problems


def per_layer(world: World, out: Out, tracer, tallies) -> dict[str, float]:
    offered = out.attempted
    counters = get_metrics().counter_values()
    completed = sum(report.completed for report in out.reports.values())
    rows = layers.setup_rows(
        tracer.setup_spans, sum(len(cell.requests)
                                for cell in world.cells))
    rows.update(layers.query_rows(tracer, tallies))
    rows.update(layers.mobile_rows(tracer, tallies, counters))
    rows.update(layers.source_rows(
        tracer, [cell.scheduler for cell in world.cells],
        out.roundtrips, offered))
    hits = counters.get("serving.cache.hits", 0)
    lookups = hits + counters.get("serving.cache.misses", 0)
    rows.update({
        "serving.admission.decide_us":
            tracer.self_us_per("serving.admission.decide"),
        "serving.admission.shed_share": layers.ratio(
            counters.get("serving.shed", 0), offered),
        "serving.scheduler.queue_us": tracer.self_us_per(
            ("serving.scheduler.try_enqueue", "serving.scheduler.pop")),
        "serving.scheduler.mean_queued_virtual_s": layers.ratio(
            sum(tenant.mean_queued_s * tenant.completed
                for report in out.reports.values()
                for tenant in report.tenants.values()), completed),
        "serving.cache.get_put_us": tracer.self_us_per(
            ("serving.cache.get", "serving.cache.put")),
        "serving.cache.hit_ratio": layers.ratio(hits, lookups),
        "serving.cache.cross_tenant_hit_share": layers.ratio(
            counters.get("serving.cache.cross_tenant_hits", 0), hits),
        "serving.frontend.self_us": layers.ratio(
            tracer.self_ns.get("serving.frontend.run", 0) / 1e3,
            offered),
        "serving.frontend.calm_p99_s": max(
            report.tenants["calm"].p99_s
            for report in out.reports.values()),
    })
    for rate, report in out.reports.items():
        rows[f"serving.frontend.rate_{rate}.p99_s"] = _worst_p99_s(report)
    return rows
