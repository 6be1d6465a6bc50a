"""Admission control: shed load *before* deadlines blow.

An overloaded open-loop system has no good steady state: arrivals keep
coming whether or not the server keeps up, so an unbounded queue turns
every admitted request into a late one. The controller's contract is
the opposite — a request is either admitted with a realistic chance of
finishing inside its SLO, or rejected immediately (typed
:class:`~repro.errors.OverloadError`, ~zero virtual latency, honest
``retry_after_s`` hint) so the client can back off.

Two tests run at arrival time, cheapest first:

1. **Queue bound** — the tenant's own queue depth against its limit.
2. **Cost-based overload** — the estimated completion time under
   weighted fair scheduling: the tenant's queued virtual cost divided
   by its effective share of the worker pool, plus the request's own
   estimated cost. If that exceeds the SLO budget, finishing late is
   the *expected* outcome and the request is shed now.

Cost estimates come from a per-kind EWMA of observed virtual service
times, so the controller adapts as cache hit rates shift. When circuit
breakers report open sources, estimates are inflated by the open
fraction — a degraded federation serves slower, so the controller sheds
earlier instead of discovering the same fact one deadline at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ServingError
from repro.serving import tenancy
from repro.serving.scheduler import FairScheduler
from repro.serving.tenancy import TenantRegistry

#: Shed reasons carried on OverloadError / outcomes / metrics names.
REASON_QUEUE_FULL = "queue_full"
REASON_OVERLOAD = "overload"
REASON_LATE = "late"  # dispatch-side: SLO already spent in queue


@dataclass(frozen=True)
class Rejection:
    """One shed decision (reason plus back-off hint)."""

    reason: str
    retry_after_s: float


#: Virtual service seconds assumed for a kind with no prior and no
#: observation yet.
DEFAULT_COST_S = 0.05
#: EWMA weight of each new observation.
COST_ALPHA = 0.2


class ServiceCostModel:
    """Per-kind EWMA of observed virtual service seconds."""

    def __init__(self, priors: dict[str, float]) -> None:
        self._estimates = dict(priors)

    def estimate_s(self, kind: str) -> float:
        return self._estimates.get(kind, DEFAULT_COST_S)

    def observe(self, kind: str, service_s: float) -> None:
        previous = self._estimates.get(kind)
        if previous is None:
            self._estimates[kind] = service_s
        else:
            self._estimates[kind] = (
                previous + COST_ALPHA * (service_s - previous)
            )

    def snapshot(self) -> dict[str, float]:
        return dict(self._estimates)


#: Floor on retry-after hints, so clients never busy-loop.
_MIN_RETRY_AFTER_S = 0.05
#: Extra cost multiplier applied per fraction of open breakers.
_BREAKER_PENALTY = 2.0


@dataclass(frozen=True)
class AdmissionConfig:
    """Controller knobs."""

    #: Virtual-seconds SLO budget a request must plausibly fit.
    slo_s: float = 1.0
    #: Admit while ``estimated completion <= slo_s * headroom`` — above
    #: 1.0 trades a few late completions for fewer false rejections.
    headroom: float = 1.0

    def __post_init__(self) -> None:
        if self.slo_s <= 0:
            raise ServingError("SLO budget must be positive")
        if self.headroom <= 0:
            raise ServingError("headroom must be positive")


class AdmissionController:
    """Arrival-time shed decisions over the scheduler's live state."""

    def __init__(self, config: AdmissionConfig,
                 tenants: TenantRegistry,
                 cost_model: ServiceCostModel,
                 workers: int,
                 breakers=None) -> None:
        if workers < 1:
            raise ServingError("admission needs >= 1 worker")
        self.config = config
        self.tenants = tenants
        self.cost_model = cost_model
        self.workers = workers
        #: Optional :class:`~repro.sources.resilience.BreakerBoard`;
        #: open breakers inflate cost estimates.
        self.breakers = breakers

    # -- estimates ----------------------------------------------------------

    def _breaker_factor(self) -> float:
        if self.breakers is None:
            return 1.0
        open_fraction = self.breakers.open_fraction()
        if open_fraction <= 0.0:
            return 1.0
        return 1.0 + open_fraction * _BREAKER_PENALTY

    def estimated_cost_s(self, kind: str) -> float:
        return self.cost_model.estimate_s(kind) * self._breaker_factor()

    def estimated_wait_s(self, tenant_id: str,
                         scheduler: FairScheduler) -> float:
        """Expected queue delay for one more request of *tenant_id*.

        Under WFQ a tenant drains at ``workers * (its weight share
        among currently active tenants)``, so only the tenant's own
        backlog counts against it — which is exactly why one hot
        tenant's queue never inflates another tenant's estimate. The
        active tenants are read off the scheduler's queues as they
        stand.
        """
        config = self.tenants.config
        weight = config(tenant_id).weight  # registers a new tenant
        if scheduler.policy == "fifo":
            # One global queue: everyone waits behind everything.
            return scheduler.total_queued_cost() / self.workers
        total_weight = weight
        for other, queue in scheduler.queues.items():
            if queue and other != tenant_id:
                total_weight += config(other).weight
        drain_rate = max(self.workers * (weight / total_weight), 1e-9)
        return scheduler.queued_cost(tenant_id) / drain_rate

    # -- the decision -------------------------------------------------------

    def decide(self, request,
               scheduler: FairScheduler) -> Rejection | None:
        """``None`` to admit, or the :class:`Rejection` to shed."""
        tenant_id = request.tenant
        if scheduler.depth(tenant_id) >= tenancy.QUEUE_LIMIT:
            # Retry once roughly half the backlog has drained.
            wait = self.estimated_wait_s(tenant_id, scheduler)
            return Rejection(
                REASON_QUEUE_FULL,
                max(_MIN_RETRY_AFTER_S, wait / 2.0),
            )
        cost = self.estimated_cost_s(request.kind)
        wait = self.estimated_wait_s(tenant_id, scheduler)
        estimated_completion = wait + cost
        budget = self.config.slo_s * self.config.headroom
        if estimated_completion > budget:
            return Rejection(
                REASON_OVERLOAD,
                max(_MIN_RETRY_AFTER_S,
                    estimated_completion - budget),
            )
        return None
