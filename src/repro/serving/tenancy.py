"""Tenants: weights, queue bounds and cache quotas.

A *tenant* is one organization's worth of mobile users sharing the
DrugTree service — a pharma group, a university lab, a public demo key.
The serving layer promises each tenant a weighted fair share of the
worker pool and protects every tenant from every other one: a flooding
tenant is queue-bounded before it can inflate anyone else's p99.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ServingError

#: Tenant id used when a request does not name one.
DEFAULT_TENANT = "default"
#: Bounded queue depth of every tenant; arrivals beyond it are shed
#: ``queue_full``.
QUEUE_LIMIT = 64


@dataclass(frozen=True)
class TenantConfig:
    """One tenant's serving contract. Its share of the shared cache
    front is its weight share."""

    tenant_id: str
    #: Weighted-fair-scheduling weight: a tenant with weight 2 drains
    #: its queue twice as fast as a weight-1 tenant under contention.
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.tenant_id:
            raise ServingError("tenant needs a non-empty id")
        if self.weight <= 0:
            raise ServingError("tenant weight must be positive")


class TenantRegistry:
    """The frontend's tenant table.

    Tenants not registered up front are materialized on first use, at
    weight 1, so an open-loop generator can invent tenants freely.
    """

    def __init__(self, configs: list[TenantConfig] | None = None) -> None:
        self._configs: dict[str, TenantConfig] = {}
        #: Sum of the registered weights, kept as tenants register.
        self._total_weight = 0.0
        for config in configs or ():
            self.register(config)

    def register(self, config: TenantConfig) -> None:
        if config.tenant_id in self._configs:
            raise ServingError(
                f"tenant {config.tenant_id!r} already registered"
            )
        self._configs[config.tenant_id] = config
        self._total_weight += config.weight

    def config(self, tenant_id: str) -> TenantConfig:
        config = self._configs.get(tenant_id)
        if config is None:
            config = TenantConfig(tenant_id=tenant_id)
            self.register(config)
        return config

    def tenant_ids(self) -> list[str]:
        return list(self._configs)

    def weight_share(self, tenant_id: str) -> float:
        """This tenant's fraction of the total registered weight."""
        config = self.config(tenant_id)
        return config.weight / self._total_weight

    def __len__(self) -> int:
        return len(self._configs)
