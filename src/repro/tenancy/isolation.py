"""Isolation verification: prove no cross-tenant state overlap.

SDT's isolation story (§VI-B) rests on three disjointness invariants,
and the multi-tenant service re-proves all of them against *actual
switch state* after every commit:

1. **cookie-disjoint flow tables** — every installed entry's cookie is
   owned by at most one tenant, and every tenant-owned cookie found on
   a switch belongs to one of that tenant's *live* deployments (no
   stale generations);
2. **disjoint wiring ownership** — no physical resource (host port,
   self-link, inter-switch link) is claimed by deployments of two
   different tenants, and every host port a tenant's deployment binds
   is inside that tenant's lease;
3. **quota conformance** — each tenant's on-switch entry count stays
   within its admitted per-switch TCAM share.

Violations raise :class:`~repro.util.errors.IsolationError` — they are
invariant breaches, never expected outcomes. Each verification also
publishes the per-tenant occupancy gauges (``tenant_*`` series) that
make the shared pool observable, and removes the series of a (tenant,
switch) pair that holds nothing any more.

A commit re-proves all three without re-walking the pool. The flow
tables keep per-cookie counts, so (1) and (3) read a few counts per
switch. For (2) the verifier keeps an **ownership index**: per wiring
resource and per physical host, the tenants whose projections claim it,
with counts. It is keyed by projection object (an incremental edit
swaps ``Deployment.projection`` in place; a projection is never changed
after it is made), so a pass indexes only the projections it has not
seen and drops the ones that are gone. Only when the index holds a
shared resource or host, or a host port outside its tenant's lease,
does the full walk run, to word the problems exactly as it always has.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from repro.core.projection.base import ProjectionResult
from repro.hardware.cluster import PhysicalCluster
from repro.hardware.wiring import HostPort
from repro.telemetry import metrics, trace
from repro.tenancy.session import TenantSession
from repro.util.errors import IsolationError


@dataclass
class IsolationReport:
    """Outcome of one verification pass."""

    problems: list[str] = field(default_factory=list)
    #: per-tenant, per-switch installed entry counts observed on-switch
    tenant_entries: dict[str, dict[str, int]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


class _Claim(NamedTuple):
    """What one projection of one session claims, as indexed."""

    #: the lease its host ports were checked against
    lease: tuple[HostPort, ...]
    #: pinned, so the ids in the index key stay theirs
    session: TenantSession
    projection: ProjectionResult
    #: its cables, then its physical hosts as ``("host", name)``
    owned: tuple
    #: bound host ports outside the lease
    breaches: int


class IsolationVerifier:
    """Audits switch + lease state against the tenant ledgers."""

    def __init__(self, cluster: PhysicalCluster) -> None:
        self.cluster = cluster
        #: (id(session), id(projection)) -> its claim, for every live
        #: projection of the sessions last verified
        self._claims: dict[tuple[int, int], _Claim] = {}
        #: wiring resource / physical host -> {tenant: claims}
        self._owners: dict[object, dict[str, int]] = {}
        #: entries of ``_owners`` with more than one tenant
        self._shared = 0
        #: bound host ports outside their lease, across the claims
        self._breaches = 0
        #: (tenant, switch) series the last pass published
        self._published: set[tuple[str, str]] = set()

    def verify(
        self, sessions: Iterable[TenantSession], *, strict: bool = True
    ) -> IsolationReport:
        """Run every check; raises :class:`IsolationError` on any
        violation when ``strict`` (the service's post-commit mode),
        otherwise returns the report for inspection."""
        sessions = [s for s in sessions]
        with trace.span("tenant.isolation_verify", tenants=len(sessions)):
            report = IsolationReport()
            self._check_cookie_ownership(sessions, report)
            self._check_flow_tables(sessions, report)
            if self._index(sessions):
                self._check_wiring(sessions, report)
            self._publish(report)
            if strict and not report.ok:
                raise IsolationError(
                    "cross-tenant isolation violated: "
                    + "; ".join(report.problems)
                )
            return report

    # --- checks ---------------------------------------------------------
    def _check_cookie_ownership(
        self, sessions: list[TenantSession], report: IsolationReport
    ) -> None:
        owner: dict[int, str] = {}
        for s in sessions:
            for cookie in s.cookies:
                if cookie in owner:
                    report.problems.append(
                        f"cookie {cookie} claimed by tenants "
                        f"{owner[cookie]!r} and {s.tenant_id!r}"
                    )
                owner[cookie] = s.tenant_id
                if not s.owns_cookie(cookie):
                    report.problems.append(
                        f"tenant {s.tenant_id!r} deployment cookie {cookie} "
                        f"is outside its namespace "
                        f"[{s.cookie_base}, {s.cookie_base + (1 << 20)})"
                    )

    def _check_flow_tables(
        self, sessions: list[TenantSession], report: IsolationReport
    ) -> None:
        live = {c: s for s in sessions for c in s.cookies}
        namespaces = {s.tenant_id: s for s in sessions}
        for s in sessions:
            report.tenant_entries[s.tenant_id] = {}
        for name, sw in self.cluster.switches.items():
            for cookie, count in sw.occupancy_by_cookie().items():
                session = live.get(cookie)
                if session is None:
                    # not a live tenant cookie: either a non-tenant
                    # deployment (below every namespace) or a leak
                    for t, s in namespaces.items():
                        if s.owns_cookie(cookie):
                            report.problems.append(
                                f"{name}: {count} entries carry cookie "
                                f"{cookie} from tenant {t!r}'s namespace "
                                "but no live deployment owns it"
                            )
                    continue
                per_switch = report.tenant_entries[session.tenant_id]
                per_switch[name] = per_switch.get(name, 0) + count
        for s in sessions:
            share = s.quota.tcam_share
            for name, count in sorted(
                report.tenant_entries[s.tenant_id].items()
            ):
                if count > share:
                    report.problems.append(
                        f"{name}: tenant {s.tenant_id!r} holds {count} "
                        f"entries, over its {share}-entry share"
                    )

    def _index(self, sessions: list[TenantSession]) -> bool:
        """Bring the ownership index up to the sessions' projections;
        True when it holds a shared resource or host, or a host port
        outside its lease (what :meth:`_check_wiring` reports)."""
        claims = self._claims
        live: dict[tuple[int, int], _Claim] = {}
        indexed = 0
        for s in sessions:
            for d in s.deployments.values():
                key = (id(s), id(d.projection))
                if key in live:  # two deployments, one projection
                    continue
                claim = claims.get(key)
                if claim is None or claim.lease is not s.lease:
                    if claim is not None:
                        self._unclaim(claim)
                    claim = self._claim(s, d.projection)
                    indexed += 1
                live[key] = claim
        for key, claim in claims.items():
            if key not in live:
                self._unclaim(claim)
        self._claims = live
        if indexed:
            metrics.registry().counter(
                "tenant_isolation_projections_indexed_total"
            ).inc(indexed)
        return bool(self._shared or self._breaches)

    def _claim(
        self, session: TenantSession, projection: ProjectionResult
    ) -> _Claim:
        leased = set(session.lease)
        cables = projection.link_realization.values()
        claim = _Claim(
            session.lease,
            session,
            projection,
            (*cables, *(("host", h) for h in projection.host_map.values())),
            sum(
                1 for r in cables
                if isinstance(r, HostPort) and r not in leased
            ),
        )
        self._breaches += claim.breaches
        owners = self._owners
        tenant = claim.session.tenant_id
        for thing in claim.owned:
            per = owners.get(thing)
            if per is None:
                owners[thing] = {tenant: 1}
            elif tenant in per:
                per[tenant] += 1
            else:
                per[tenant] = 1
                self._shared += len(per) == 2
        return claim

    def _unclaim(self, claim: _Claim) -> None:
        self._breaches -= claim.breaches
        owners = self._owners
        tenant = claim.session.tenant_id
        for thing in claim.owned:
            per = owners[thing]
            left = per[tenant] - 1
            if left:
                per[tenant] = left
                continue
            del per[tenant]
            if not per:
                del owners[thing]
            else:
                self._shared -= len(per) == 1

    def _check_wiring(
        self, sessions: list[TenantSession], report: IsolationReport
    ) -> None:
        resource_owner: dict = {}
        host_owner: dict[str, str] = {}
        for s in sessions:
            for d in s.deployments.values():
                for r in d.projection.link_realization.values():
                    prev = resource_owner.get(r)
                    if prev is not None and prev != s.tenant_id:
                        report.problems.append(
                            f"resource {r} owned by tenants {prev!r} "
                            f"and {s.tenant_id!r}"
                        )
                    resource_owner[r] = s.tenant_id
                    if isinstance(r, HostPort) and r not in s.lease:
                        report.problems.append(
                            f"tenant {s.tenant_id!r} bound host port {r} "
                            "outside its lease"
                        )
                for phys in d.projection.host_map.values():
                    prev = host_owner.get(phys)
                    if prev is not None and prev != s.tenant_id:
                        report.problems.append(
                            f"physical host {phys!r} bound by tenants "
                            f"{prev!r} and {s.tenant_id!r}"
                        )
                    host_owner[phys] = s.tenant_id

    # --- telemetry ------------------------------------------------------
    def _publish(self, report: IsolationReport) -> None:
        """Set each (tenant, switch) entry count observed, and remove
        the series the last pass set that this one did not observe."""
        reg = metrics.registry()
        gauge = reg.gauge("tenant_tcam_entries")
        published = set()
        for tenant, per_switch in report.tenant_entries.items():
            for name, count in per_switch.items():
                gauge.set(count, tenant=tenant, switch=name)
                published.add((tenant, name))
        for tenant, name in self._published - published:
            gauge.remove(tenant=tenant, switch=name)
        self._published = published
        reg.gauge("tenant_isolation_violations").set(len(report.problems))
