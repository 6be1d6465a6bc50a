"""The multi-tenant serving frontend: virtual-time async execution.

:class:`ServingFrontend` sits in front of a
:class:`~repro.mobile.server.DrugTreeServer` and turns it from a
one-session-at-a-time component into a load-bearing service. It is a
deterministic discrete-event coordinator over *virtual* time:

* an open-loop request stream (see :mod:`repro.workloads.loadgen`)
  arrives at seeded virtual instants — arrivals do not wait for
  completions, exactly like real phones don't;
* admitted requests wait in bounded per-tenant queues drained in
  weighted-fair order (:mod:`repro.serving.scheduler`);
* a pool of virtual workers executes them concurrently: each worker is
  a task timeline inside one ``SimulatedClock.concurrently()`` region,
  so overlapping service costs the *max*, not the sum, and the region
  join advances the world clock by the makespan;
* admission control (:mod:`repro.serving.admission`) sheds requests
  whose estimated completion would blow the SLO — at ~zero virtual
  cost, with typed :class:`~repro.errors.OverloadError` carrying
  retry-after hints;
* a shared :class:`~repro.serving.cache.SharedCacheFront` answers hot
  repeats without touching the server, with per-tenant working-set
  quotas.

Every latency in the report is virtual, so a run is bit-deterministic
from its seeds: same load, same report, byte for byte. The event loop
runs on one real thread (worker timelines model concurrency in virtual
time); the mobile server below it is independently thread-safe for
deployments that use real pools.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.errors import (
    DrugTreeError,
    OverloadError,
    ServingError,
    UnknownSessionError,
)
from repro.mobile.server import DrugTreeServer
from repro.obs import get_metrics, get_tracer
from repro.serving.admission import (
    REASON_LATE,
    REASON_QUEUE_FULL,
    AdmissionConfig,
    AdmissionController,
    Rejection,
    ServiceCostModel,
)
from repro.serving.cache import SharedCacheFront
from repro.serving.scheduler import FairScheduler
from repro.serving.tenancy import TenantConfig, TenantRegistry
from repro.sources.clock import SimulatedClock
from repro.workloads.harness import percentile

#: Request kinds the frontend can execute against the mobile server.
KINDS = ("render", "query", "details")

#: Base virtual service cost per kind, seconds. Covers the
#: server-side compute the simulation cannot charge as wall time;
#: federation round-trips add their own virtual latency on top.
SERVICE_COST_S = {
    "open": 0.030,
    "render": 0.020,
    "query": 0.060,
    "details": 0.020,
    "hit": 0.002,
}


#: The cache front's own counts, published per run as
#: ``serving.cache.{name}``.
_CACHE_COUNTS = ("hits", "misses", "cross_tenant_hits", "evictions")


@dataclass(frozen=True)
class Request:
    """One client gesture arriving at the serving layer."""

    tenant: str
    session: str          # client-side session key, unique per tenant
    kind: str             # "render" | "query" | "details"
    target: str           # focus node, DTQL text, or protein id
    arrival_s: float      # virtual offset from the run start
    seq: int = 0          # arrival tie-break

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ServingError(
                f"unknown request kind {self.kind!r}; "
                f"pick one of {', '.join(KINDS)}"
            )
        if self.arrival_s < 0:
            raise ServingError("arrival offset must be >= 0")


@dataclass
class Outcome:
    """One finished request: served, failed, or shed."""

    request: Request
    status: str                   # "ok" | "failed" | "shed"
    reason: str | None = None     # shed reason or failure class name
    queued_s: float = 0.0         # virtual wait before a worker
    service_s: float = 0.0        # virtual execution time
    latency_s: float = 0.0        # arrival -> completion, virtual
    retry_after_s: float = 0.0    # back-off hint on sheds
    cache: str = ""               # "hit" | "miss" | "" (not cacheable)
    rows: int = 0
    error: OverloadError | None = None

    @property
    def shed(self) -> bool:
        return self.status == "shed"


@dataclass(frozen=True)
class FrontendConfig:
    """Serving-layer knobs."""

    workers: int = 8
    policy: str = "wfq"                  # "wfq" | "fifo"
    #: ``None`` disables admission control (the naive baseline).
    admission: AdmissionConfig | None = field(
        default_factory=AdmissionConfig)
    #: Virtual-seconds SLO a completion must meet to count as goodput.
    slo_s: float = 1.0
    #: False disables the shared cache front entirely.
    use_cache: bool = True

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ServingError("frontend needs >= 1 worker")
        if self.slo_s <= 0:
            raise ServingError("SLO must be positive")


@dataclass
class TenantReport:
    """One tenant's share of a serving run."""

    tenant: str
    offered: int = 0
    admitted: int = 0
    shed: int = 0
    shed_reasons: dict[str, int] = field(default_factory=dict)
    completed: int = 0
    failed: int = 0
    within_slo: int = 0
    cache_hits: int = 0
    p50_s: float = 0.0
    p99_s: float = 0.0
    p999_s: float = 0.0
    max_s: float = 0.0
    mean_queued_s: float = 0.0

    @property
    def goodput(self) -> float:
        """Fraction of *offered* requests completed within the SLO."""
        return self.within_slo / self.offered if self.offered else 0.0

    @property
    def shed_rate(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "tenant": self.tenant,
            "offered": self.offered,
            "admitted": self.admitted,
            "shed": self.shed,
            "shed_reasons": dict(sorted(self.shed_reasons.items())),
            "completed": self.completed,
            "failed": self.failed,
            "within_slo": self.within_slo,
            "cache_hits": self.cache_hits,
            "goodput": self.goodput,
            "shed_rate": self.shed_rate,
            "p50_s": self.p50_s,
            "p99_s": self.p99_s,
            "p999_s": self.p999_s,
            "max_s": self.max_s,
            "mean_queued_s": self.mean_queued_s,
        }


@dataclass
class ServingReport:
    """Whole-run summary: totals, quantiles, per-tenant breakdown."""

    offered: int
    makespan_s: float
    slo_s: float
    tenants: dict[str, TenantReport]
    cache: dict[str, Any]
    cost_estimates: dict[str, float]

    @property
    def completed(self) -> int:
        return sum(t.completed for t in self.tenants.values())

    @property
    def shed(self) -> int:
        return sum(t.shed for t in self.tenants.values())

    @property
    def within_slo(self) -> int:
        return sum(t.within_slo for t in self.tenants.values())

    @property
    def goodput(self) -> float:
        return self.within_slo / self.offered if self.offered else 0.0

    @property
    def shed_rate(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    @property
    def offered_rps(self) -> float:
        return self.offered / self.makespan_s if self.makespan_s else 0.0

    @property
    def goodput_rps(self) -> float:
        return (self.within_slo / self.makespan_s
                if self.makespan_s else 0.0)

    def as_dict(self) -> dict[str, Any]:
        return {
            "offered": self.offered,
            "completed": self.completed,
            "shed": self.shed,
            "within_slo": self.within_slo,
            "goodput": self.goodput,
            "shed_rate": self.shed_rate,
            "makespan_s": self.makespan_s,
            "offered_rps": self.offered_rps,
            "goodput_rps": self.goodput_rps,
            "slo_s": self.slo_s,
            "tenants": {tenant: report.as_dict()
                        for tenant, report in
                        sorted(self.tenants.items())},
            "cache": self.cache,
            "cost_estimates": dict(sorted(self.cost_estimates.items())),
        }


class ServingFrontend:
    """Admission-controlled multi-tenant frontend over one server."""

    def __init__(self, server: DrugTreeServer, clock: SimulatedClock,
                 config: FrontendConfig | None = None,
                 tenants: list[TenantConfig] | None = None) -> None:
        self.server = server
        self.clock = clock
        self.config = config or FrontendConfig()
        self.tenants = TenantRegistry(tenants)
        self.scheduler = FairScheduler(self.tenants,
                                       policy=self.config.policy)
        self.cost_model = ServiceCostModel(
            priors=dict(SERVICE_COST_S))
        self.admission: AdmissionController | None = None
        if self.config.admission is not None:
            self.admission = AdmissionController(
                self.config.admission, self.tenants, self.cost_model,
                workers=self.config.workers,
                breakers=getattr(server.federation, "breakers", None),
            )
        self.cache: SharedCacheFront | None = None
        if self.config.use_cache:
            self.cache = SharedCacheFront(self.tenants)
        #: (tenant, session) -> server session id.
        self._server_sessions: dict[tuple[str, str], str] = {}
        self.outcomes: list[Outcome] = []

    # -- the run ------------------------------------------------------------

    def run(self, requests: list[Request]) -> ServingReport:
        """Serve an open-loop request stream to completion.

        Returns the per-tenant SLO report; the raw :class:`Outcome`
        list (in completion order) stays on ``self.outcomes``.
        """
        ordered = sorted(requests,
                         key=lambda r: (r.arrival_s, r.seq))
        base = self.clock.now()
        self.outcomes = []
        cache_before = self._cache_counts()
        try:
            with get_tracer().span("serving.run",
                                   requests=len(ordered)):
                with self.clock.concurrently() as region:
                    workers = [region.task()
                               for _ in range(self.config.workers)]
                    self._loop(ordered, workers, base)
        finally:
            self._publish(cache_before)
        makespan = self.clock.now() - base
        return self._report(makespan)

    def _loop(self, ordered: list[Request], workers: list,
              base: float) -> None:
        pending = deque(ordered)
        free = list(range(len(workers) - 1, -1, -1))
        busy: list[tuple[float, int, int]] = []
        tick = itertools.count()
        infinity = float("inf")
        while pending or busy:
            next_arrival = (base + pending[0].arrival_s
                            if pending else infinity)
            next_done = busy[0][0] if busy else infinity
            if busy and next_done <= next_arrival:
                finish, _, widx = heapq.heappop(busy)
                free.append(widx)
                self._dispatch_ready(finish, free, busy, workers,
                                     tick, base)
            else:
                request = pending.popleft()
                self._arrive(request, next_arrival, free, busy,
                             workers, tick, base)

    # -- arrival / admission ------------------------------------------------

    def _arrive(self, request: Request, now: float, free: list,
                busy: list, workers: list, tick, base: float) -> None:
        if self.admission is not None:
            rejection = self.admission.decide(request, self.scheduler)
            if rejection is not None:
                self._shed(request, rejection)
                return
        cost = self.cost_model.estimate_s(request.kind)
        if not self.scheduler.try_enqueue(request, now, cost):
            # WFQ without admission still honors the queue bound.
            self._shed(request, Rejection(REASON_QUEUE_FULL, 0.0))
            return
        if free:
            self._dispatch_ready(now, free, busy, workers, tick, base)

    def _shed(self, request: Request, rejection: Rejection) -> None:
        """Reject at ~zero virtual cost, with a typed error attached."""
        error = OverloadError(
            f"request shed ({rejection.reason}); retry after "
            f"{rejection.retry_after_s:.3f}s",
            reason=rejection.reason,
            tenant=request.tenant,
            retry_after_s=rejection.retry_after_s,
        )
        self.outcomes.append(Outcome(
            request=request, status="shed", reason=rejection.reason,
            retry_after_s=rejection.retry_after_s, error=error,
        ))

    # -- dispatch / execution -----------------------------------------------

    def _dispatch_ready(self, now: float, free: list, busy: list,
                        workers: list, tick, base: float) -> None:
        while free and len(self.scheduler):
            item = self.scheduler.pop()
            request = item.request
            queued_s = now - item.enqueued_s
            if (self.admission is not None
                    and queued_s >= self.config.slo_s):
                # The SLO is already spent in queue: executing would
                # burn a worker on a guaranteed-late answer.
                self._shed(request, Rejection(REASON_LATE, 0.0))
                continue
            widx = free.pop()
            timeline = workers[widx]
            with timeline:
                if now > timeline.now():
                    timeline.advance(now - timeline.now())
                outcome = self._execute(request, timeline)
                finish = timeline.now()
            outcome.queued_s = queued_s
            outcome.latency_s = finish - item.enqueued_s
            heapq.heappush(busy, (finish, next(tick), widx))
            self._complete(outcome)

    def _cache_key(self, request: Request) -> tuple | None:
        if self.cache is None:
            return None
        if request.kind == "render":
            # Delta frames are relative to one session's last payload;
            # only stateless full renders are shareable across tenants.
            if self.server.config.use_delta:
                return None
            return ("render", request.target)
        if request.kind == "query":
            return ("query", request.target)
        return ("details", request.target)

    def _execute(self, request: Request, timeline) -> Outcome:
        """Run one admitted request on a worker timeline."""
        hit_cost = SERVICE_COST_S["hit"]
        key = self._cache_key(request)
        version = self.server.drugtree.data_version
        if key is not None:
            entry = self.cache.get(key, request.tenant, version)
            if entry is not None:
                timeline.advance(hit_cost)
                self.cost_model.observe(request.kind, hit_cost)
                return Outcome(request=request, status="ok",
                               cache="hit",
                               service_s=hit_cost,
                               rows=entry.value.payload_rows)
        started = timeline.now()
        timeline.advance(SERVICE_COST_S[request.kind])
        try:
            session_id = self._ensure_session(request, timeline)
            response = self._call_server(session_id, request)
        except UnknownSessionError:
            # The bounded session table evicted this session while it
            # sat in queue; reopen transparently and retry once.
            session_id = self._reopen_session(request, timeline)
            response = self._call_server(session_id, request)
        except OverloadError:
            raise  # never swallowed into a failure
        except DrugTreeError as error:
            service = timeline.now() - started
            self.cost_model.observe(request.kind, service)
            return Outcome(request=request, status="failed",
                           reason=type(error).__name__,
                           service_s=service, cache="miss")
        service = timeline.now() - started
        self.cost_model.observe(request.kind, service)
        if key is not None and response.status == "fresh":
            # A degraded or stale answer describes the fault, not the
            # data: it must not outlive the fault in a shared cache.
            self.cache.put(key, request.tenant, response, version,
                           cost_s=service)
        return Outcome(request=request, status="ok",
                       cache="miss" if key is not None else "",
                       service_s=service, rows=response.payload_rows)

    def _call_server(self, session_id: str, request: Request):
        if request.kind == "render":
            return self.server.navigate(session_id, request.target)
        if request.kind == "query":
            return self.server.query(session_id, request.target)
        return self.server.protein_details(session_id, request.target)

    def _ensure_session(self, request: Request, timeline) -> str:
        session_key = (request.tenant, request.session)
        session_id = self._server_sessions.get(session_key)
        if session_id is None:
            timeline.advance(SERVICE_COST_S["open"])
            session_id, _ = self.server.open_session()
            self._server_sessions[session_key] = session_id
            get_metrics().counter("serving.sessions_opened").inc()
        return session_id

    def _reopen_session(self, request: Request, timeline) -> str:
        session_key = (request.tenant, request.session)
        self._server_sessions.pop(session_key, None)
        get_metrics().counter("serving.sessions_reopened").inc()
        return self._ensure_session(request, timeline)

    # -- accounting ---------------------------------------------------------

    def _complete(self, outcome: Outcome) -> None:
        self.outcomes.append(outcome)

    def _cache_counts(self) -> tuple[int, ...]:
        if self.cache is None:
            return ()
        return tuple(getattr(self.cache, name) for name in _CACHE_COUNTS)

    def _publish(self, cache_before: tuple[int, ...]) -> None:
        """Account the run in the metrics registry, once, as a fold
        over its outcomes (in completion order, the order the
        histograms observe) and what it added to the cache front's
        counts. An instrument nothing in the run touched is not
        created. A run that raised publishes the outcomes it recorded.
        """
        metrics = get_metrics()
        shed: dict[str, int] = {}
        served = failed = within_slo = 0
        ran_tenants: dict[str, None] = {}
        slo_s = self.config.slo_s
        for outcome in self.outcomes:
            status = outcome.status
            if status == "shed":
                shed[outcome.reason] = shed.get(outcome.reason, 0) + 1
                continue
            ran_tenants[outcome.request.tenant] = None
            if status == "failed":
                failed += 1
            else:
                served += 1
                within_slo += outcome.latency_s <= slo_s
        shed_total = sum(shed.values())
        # A late shed was admitted first; the others never queued.
        admitted = (len(self.outcomes) - shed_total
                    + shed.get(REASON_LATE, 0))
        counts = {
            "serving.requests": len(self.outcomes),
            "serving.admitted": admitted,
            "serving.shed": shed_total,
            "serving.completed": served,
            "serving.failed": failed,
            "serving.goodput": within_slo,
        }
        for reason, count in shed.items():
            counts[f"serving.shed.{reason}"] = count
        for name, after, before in zip(_CACHE_COUNTS,
                                       self._cache_counts(),
                                       cache_before):
            counts[f"serving.cache.{name}"] = after - before
        for name, count in counts.items():
            if count:
                metrics.counter(name).inc(count)
        outcomes = self.outcomes
        if ran_tenants:
            metrics.histogram("serving.latency_s").observe_many(
                o.latency_s for o in outcomes if o.status != "shed")
            metrics.histogram("serving.queue_wait_s").observe_many(
                o.queued_s for o in outcomes if o.status != "shed")
            for tenant in ran_tenants:
                metrics.histogram(
                    f"serving.tenant.{tenant}.latency_s").observe_many(
                    o.latency_s for o in outcomes
                    if o.status != "shed" and o.request.tenant == tenant)
        if admitted:
            metrics.gauge("serving.queue_depth").set(len(self.scheduler))

    def _report(self, makespan_s: float) -> ServingReport:
        """Every tenant figure is a fold over this run's outcomes."""
        by_tenant: dict[str, list[Outcome]] = {}
        for outcome in self.outcomes:
            by_tenant.setdefault(outcome.request.tenant, []).append(outcome)
        tenants: dict[str, TenantReport] = {}
        for tenant_id in self.tenants.tenant_ids():
            outcomes = by_tenant.get(tenant_id)
            if not outcomes:
                continue
            # An admitted request ends served or failed; a late one is
            # shed, never admitted.
            ran = [o for o in outcomes if not o.shed]
            latencies = [o.latency_s for o in ran]
            queued = [o.queued_s for o in ran]
            shed_reasons: dict[str, int] = {}
            for outcome in outcomes:
                if outcome.shed:
                    shed_reasons[outcome.reason] = (
                        shed_reasons.get(outcome.reason, 0) + 1)
            served = [o for o in ran if o.status == "ok"]
            tenants[tenant_id] = TenantReport(
                tenant=tenant_id,
                offered=len(outcomes),
                admitted=len(ran),
                shed=len(outcomes) - len(ran),
                shed_reasons=shed_reasons,
                completed=len(served),
                failed=len(ran) - len(served),
                within_slo=sum(o.latency_s <= self.config.slo_s
                               for o in served),
                cache_hits=sum(o.cache == "hit" for o in served),
                p50_s=percentile(latencies, 0.50),
                p99_s=percentile(latencies, 0.99),
                p999_s=percentile(latencies, 0.999),
                max_s=max(latencies, default=0.0),
                mean_queued_s=(sum(queued) / len(queued)
                               if queued else 0.0),
            )
        offered = sum(t.offered for t in tenants.values())
        return ServingReport(
            offered=offered,
            makespan_s=makespan_s,
            slo_s=self.config.slo_s,
            tenants=tenants,
            cache=self.cache.stats() if self.cache is not None else {},
            cost_estimates=self.cost_model.snapshot(),
        )
