"""Multi-tenant testbed service over a shared SDT switch pool.

The paper shows one pool hosting several logical topologies at once
(§VI-B); this package turns that capability into a service: tenant
sessions with quotas and disjoint cookie/host-port ownership
(:mod:`~repro.tenancy.session`), admission control that guarantees
zero mutation on reject (:mod:`~repro.tenancy.admission`),
deterministic fair-share scheduling of control-plane transactions
(:mod:`~repro.tenancy.scheduler`), post-commit isolation verification
(:mod:`~repro.tenancy.isolation`), and the front-end binding them
together (:mod:`~repro.tenancy.service`), whose operations every
caller submits through that scheduler. Scenario files
(:mod:`~repro.tenancy.scenario`) are replayed as a client of
:class:`~repro.service.app.ControlPlaneService`, the one entry point
for tenant work.
"""

from repro.tenancy.admission import AdmissionController
from repro.tenancy.isolation import IsolationReport, IsolationVerifier
from repro.tenancy.scenario import (
    Scenario,
    TenantSpec,
    build_pool_for_tenants,
    serve_scenario,
)
from repro.tenancy.scheduler import Operation, Scheduler
from repro.tenancy.service import TestbedService
from repro.tenancy.session import (
    SESSION_ACTIVE,
    SESSION_CLOSED,
    SESSION_EVICTED,
    TENANT_COOKIE_SPACE,
    TenantQuota,
    TenantSession,
)

__all__ = [
    "AdmissionController",
    "IsolationReport",
    "IsolationVerifier",
    "Operation",
    "Scenario",
    "Scheduler",
    "SESSION_ACTIVE",
    "SESSION_CLOSED",
    "SESSION_EVICTED",
    "TENANT_COOKIE_SPACE",
    "TenantQuota",
    "TenantSession",
    "TenantSpec",
    "TestbedService",
    "build_pool_for_tenants",
    "serve_scenario",
]
