"""The million-user serving layer: multi-tenant frontend over one tree.

Everything here runs in *virtual* time on a deterministic event loop —
see :mod:`repro.serving.frontend` for the architecture overview and
``docs/SERVING.md`` for the prose version.
"""

from repro.serving.admission import (
    REASON_LATE,
    REASON_OVERLOAD,
    REASON_QUEUE_FULL,
    AdmissionConfig,
    AdmissionController,
    Rejection,
    ServiceCostModel,
)
from repro.serving.cache import SharedCacheFront
from repro.serving.frontend import (
    KINDS,
    FrontendConfig,
    Outcome,
    Request,
    ServingFrontend,
    ServingReport,
    TenantReport,
)
from repro.serving.scheduler import (
    POLICIES,
    FairScheduler,
    QueuedRequest,
)
from repro.serving.tenancy import DEFAULT_TENANT, TenantConfig, TenantRegistry

__all__ = [
    "DEFAULT_TENANT",
    "KINDS",
    "POLICIES",
    "REASON_LATE",
    "REASON_OVERLOAD",
    "REASON_QUEUE_FULL",
    "AdmissionConfig",
    "AdmissionController",
    "FairScheduler",
    "FrontendConfig",
    "Outcome",
    "QueuedRequest",
    "Rejection",
    "Request",
    "ServiceCostModel",
    "ServingFrontend",
    "ServingReport",
    "SharedCacheFront",
    "TenantConfig",
    "TenantRegistry",
    "TenantReport",
]
