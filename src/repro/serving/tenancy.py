"""Tenants: weights, rate limits, and queue bounds.

A *tenant* is one organization's worth of mobile users sharing the
DrugTree service — a pharma group, a university lab, a public demo key.
The serving layer promises each tenant a weighted fair share of the
worker pool and protects every tenant from every other one: a flooding
tenant is rate-limited and queue-bounded before it can inflate anyone
else's p99.

All rate limiting runs in *virtual* time against the same
:class:`~repro.sources.clock.SimulatedClock` the rest of the system
charges, so a whole million-user traffic scenario replays
bit-identically from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ServingError
from repro.sources.clock import TokenBucket

#: Tenant id used when a request does not name one.
DEFAULT_TENANT = "default"


@dataclass(frozen=True)
class TenantConfig:
    """One tenant's serving contract."""

    tenant_id: str
    #: Weighted-fair-scheduling weight: a tenant with weight 2 drains
    #: its queue twice as fast as a weight-1 tenant under contention.
    weight: float = 1.0
    #: Bounded queue depth; arrivals beyond it are shed ``queue_full``.
    queue_limit: int = 64
    #: Sustained admitted requests per virtual second (token-bucket
    #: refill rate). ``None`` disables rate limiting for the tenant.
    rate_limit_rps: float | None = None
    #: Token-bucket burst size (capacity), in requests.
    burst: float = 8.0
    #: Fraction of the shared cache front this tenant may own. ``None``
    #: derives the fraction from the tenant's weight share.
    cache_quota_fraction: float | None = None

    def __post_init__(self) -> None:
        if not self.tenant_id:
            raise ServingError("tenant needs a non-empty id")
        if self.weight <= 0:
            raise ServingError("tenant weight must be positive")
        if self.queue_limit < 1:
            raise ServingError("tenant queue limit must be >= 1")
        if self.rate_limit_rps is not None and self.rate_limit_rps <= 0:
            raise ServingError("tenant rate limit must be positive")
        if self.burst < 1:
            raise ServingError("tenant burst must be >= 1 request")
        if self.cache_quota_fraction is not None \
                and not 0.0 < self.cache_quota_fraction <= 1.0:
            raise ServingError("cache quota fraction must be in (0, 1]")


class TenantRegistry:
    """The frontend's tenant table: configs and rate-limit buckets.

    Tenants not registered up front are materialized on first use with
    ``default_config`` (id swapped in) so an open-loop generator can
    invent tenants freely.
    """

    def __init__(self, configs: list[TenantConfig] | None = None,
                 default_config: TenantConfig | None = None,
                 now: float = 0.0) -> None:
        self._default = default_config or TenantConfig(DEFAULT_TENANT)
        self._configs: dict[str, TenantConfig] = {}
        self._buckets: dict[str, TokenBucket] = {}
        self._now0 = now
        for config in configs or ():
            self.register(config)

    def register(self, config: TenantConfig) -> None:
        if config.tenant_id in self._configs:
            raise ServingError(
                f"tenant {config.tenant_id!r} already registered"
            )
        self._configs[config.tenant_id] = config
        if config.rate_limit_rps is not None:
            self._buckets[config.tenant_id] = TokenBucket(
                config.rate_limit_rps, config.burst, now=self._now0,
            )

    def config(self, tenant_id: str) -> TenantConfig:
        config = self._configs.get(tenant_id)
        if config is None:
            base = self._default
            config = TenantConfig(
                tenant_id=tenant_id,
                weight=base.weight,
                queue_limit=base.queue_limit,
                rate_limit_rps=base.rate_limit_rps,
                burst=base.burst,
                cache_quota_fraction=base.cache_quota_fraction,
            )
            self.register(config)
        return config

    def bucket(self, tenant_id: str) -> TokenBucket | None:
        self.config(tenant_id)  # materialize on first touch
        return self._buckets.get(tenant_id)

    def tenant_ids(self) -> list[str]:
        return list(self._configs)

    def weight_share(self, tenant_id: str) -> float:
        """This tenant's fraction of the total registered weight."""
        config = self.config(tenant_id)
        total = sum(c.weight for c in self._configs.values())
        return config.weight / total if total else 1.0

    def __len__(self) -> int:
        return len(self._configs)
