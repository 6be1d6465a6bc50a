"""Request scheduling: bounded per-tenant queues, weighted fair order.

Two policies share one interface:

* ``"wfq"`` — weighted fair queuing. Every tenant has its own bounded
  FIFO; each enqueued request is stamped with a *virtual finish tag*
  ``start + cost / weight`` (start = max of the scheduler's virtual
  progress and the tenant's last finish), and dequeue always serves the
  smallest tag. A flooding tenant only ever stacks tags further into
  its own future — other tenants' fresh requests keep sorting ahead of
  the backlog, which is what bounds their p99 under attack.
* ``"fifo"`` — one global arrival-ordered queue, the naive baseline
  experiment E17 measures collapse against.

The scheduler is a passive data structure driven by the frontend's
deterministic event loop; it is not itself thread-safe.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Any

from repro.errors import ServingError
from repro.serving.tenancy import TenantRegistry

#: Scheduling policies the frontend accepts.
POLICIES = ("wfq", "fifo")


@dataclass
class QueuedRequest:
    """One admitted request waiting for a worker."""

    request: Any                 # repro.serving.frontend.Request
    enqueued_s: float            # virtual arrival at the queue
    cost_s: float                # estimated virtual service cost
    finish_tag: float = 0.0      # WFQ virtual finish time


class FairScheduler:
    """Bounded per-tenant queues with weighted-fair (or FIFO) dequeue."""

    def __init__(self, tenants: TenantRegistry,
                 policy: str = "wfq") -> None:
        if policy not in POLICIES:
            raise ServingError(
                f"unknown scheduling policy {policy!r}; "
                f"pick one of {', '.join(POLICIES)}"
            )
        self.policy = policy
        self.tenants = tenants
        self._queues: OrderedDict[str, deque[QueuedRequest]] = \
            OrderedDict()
        #: WFQ virtual progress: the largest finish tag ever served.
        self._virtual = 0.0
        #: Per-tenant last assigned finish tag.
        self._last_finish: dict[str, float] = {}
        self._depth = 0
        self._queued_cost: dict[str, float] = {}

    # -- introspection (admission reads these) ------------------------------

    def __len__(self) -> int:
        return self._depth

    def depth(self, tenant_id: str) -> int:
        queue = self._queues.get(tenant_id)
        return len(queue) if queue is not None else 0

    def queued_cost(self, tenant_id: str) -> float:
        """Estimated virtual service seconds queued for one tenant."""
        return self._queued_cost.get(tenant_id, 0.0)

    def total_queued_cost(self) -> float:
        return sum(self._queued_cost.values())

    def active_tenants(self) -> list[str]:
        """Tenants with at least one queued request."""
        return [tenant for tenant, queue in self._queues.items()
                if queue]

    # -- enqueue / dequeue --------------------------------------------------

    def try_enqueue(self, request: Any, now: float,
                    cost_s: float) -> bool:
        """Queue *request*; False when the tenant's queue is full.

        FIFO mode still keeps per-tenant deques (so depth accounting
        works) but ignores the bound — the naive baseline queues
        without limit, which is exactly how it collapses.
        """
        tenant_id = request.tenant
        config = self.tenants.config(tenant_id)
        queue = self._queues.get(tenant_id)
        if queue is None:
            queue = self._queues[tenant_id] = deque()
        if self.policy == "wfq" and len(queue) >= config.queue_limit:
            return False
        item = QueuedRequest(request, now, cost_s)
        if self.policy == "wfq":
            start = max(self._virtual,
                        self._last_finish.get(tenant_id, 0.0))
            item.finish_tag = start + cost_s / config.weight
            self._last_finish[tenant_id] = item.finish_tag
        else:
            item.finish_tag = now  # arrival order
        queue.append(item)
        self._depth += 1
        self._queued_cost[tenant_id] = (
            self._queued_cost.get(tenant_id, 0.0) + cost_s
        )
        return True

    def pop(self) -> QueuedRequest | None:
        """The next request to serve, by policy order."""
        best_tenant: str | None = None
        best_key: tuple[float, float] | None = None
        for tenant_id, queue in self._queues.items():
            if not queue:
                continue
            head = queue[0]
            key = (head.finish_tag, head.enqueued_s)
            if best_key is None or key < best_key:
                best_key = key
                best_tenant = tenant_id
        if best_tenant is None:
            return None
        item = self._queues[best_tenant].popleft()
        self._depth -= 1
        remaining = self._queued_cost.get(best_tenant, 0.0) - item.cost_s
        self._queued_cost[best_tenant] = max(0.0, remaining)
        if self.policy == "wfq" and item.finish_tag > self._virtual:
            self._virtual = item.finish_tag
        return item
