"""The multi-tenant testbed service: sessions + admission + scheduling.

:class:`TestbedService` is the front-end that turns one SDT pool into a
shared facility. It owns the :class:`SDTController` (created with
occupancy-aware placement, so tenants spread over the pool instead of
piling onto the first switch), an
:class:`~repro.tenancy.admission.AdmissionController` that vets every
request before a switch is touched, a
:class:`~repro.tenancy.scheduler.Scheduler` that runs tenant operations
one at a time in per-tenant FIFO, fair-share order, and an
:class:`~repro.tenancy.isolation.IsolationVerifier` that re-proves
cross-tenant disjointness after every commit.

Threading model: the scheduler's one worker thread runs the operation
bodies; each body also holds one service-wide lock, because
:class:`SDTController` is not thread-safe and session opens and status
reads run on other threads.
"""

from __future__ import annotations

import threading
from functools import partial

from repro.core.controller.config import TopologyConfig
from repro.core.controller.controller import Deployment, SDTController
from repro.hardware.cluster import PhysicalCluster
from repro.hardware.wiring import HostPort
from repro.recovery.journal import active_journal
from repro.telemetry import metrics, trace
from repro.tenancy.admission import AdmissionController
from repro.tenancy.isolation import IsolationVerifier
from repro.tenancy.scheduler import SESSION_END_KINDS, Operation, Scheduler
from repro.tenancy.session import (
    SESSION_ACTIVE,
    SESSION_CLOSED,
    SESSION_EVICTED,
    TenantQuota,
    TenantSession,
)
from repro.topology.graph import Topology
from repro.util.errors import AdmissionError, ConfigurationError, ProjectionError

ConfigLike = TopologyConfig | Topology


class TestbedService:
    """Shared-pool tenant state and the operations that change it."""

    __test__ = False  # "Test" prefix is the product name, not a pytest class

    def __init__(
        self,
        cluster: PhysicalCluster,
        *,
        placement: str = "occupancy",
        max_workers: int | None = None,
    ) -> None:
        # max_workers is accepted and ignored only for the frozen perf
        # ledger (benchmarks/perf/wl_churn.py); the next [benchmark]
        # change drops it
        self.cluster = cluster
        self.controller = SDTController(cluster, placement=placement)
        self.admission = AdmissionController(self.controller)
        self.scheduler = Scheduler()
        self.verifier = IsolationVerifier(cluster)
        self.sessions: dict[str, TenantSession] = {}
        self._next_index = 1  # indices are never reused: cookie blocks stay unique
        self._lock = threading.RLock()  # guards controller + session state

    # --- session lifecycle ----------------------------------------------
    def open_session(
        self, tenant_id: str, quota: TenantQuota
    ) -> TenantSession:
        """Admit a tenant: grant a host-port lease and a cookie block.

        Lease allocation is deterministic: free host ports are taken
        round-robin across name-sorted switches, so a tenant's hosts
        spread over the pool (and two runs of the same scenario lease
        identical ports). Raises :class:`AdmissionError` when fewer
        than ``quota.host_ports`` ports are free.
        """
        with self._lock, trace.span(
            "tenant.open_session", tenant=tenant_id
        ):
            live = self.sessions.get(tenant_id)
            if live is not None and live.state == SESSION_ACTIVE:
                raise ConfigurationError(
                    f"tenant {tenant_id!r} already has an active session"
                )
            lease = self._allocate_lease(tenant_id, quota.host_ports)
            session = TenantSession(
                tenant_id=tenant_id,
                index=self._next_index,
                quota=quota,
                lease=lease,
            )
            self._next_index += 1
            self.sessions[tenant_id] = session
            self._journal_session(session)
            reg = metrics.registry()
            reg.gauge("tenant_host_ports_leased").set(
                len(lease), tenant=tenant_id
            )
            reg.gauge("tenant_sessions_active").set(len(self._active()))
            return session

    def _allocate_lease(
        self, tenant_id: str, count: int
    ) -> tuple[HostPort, ...]:
        taken = {hp for s in self._active() for hp in s.lease}
        free_by_switch: dict[str, list[HostPort]] = {}
        for hp in self.cluster.wiring.host_ports:
            if hp not in taken:
                free_by_switch.setdefault(hp.switch, []).append(hp)
        for ports in free_by_switch.values():
            ports.sort(key=lambda hp: hp.port)
        order = sorted(free_by_switch)
        lease: list[HostPort] = []
        while len(lease) < count and order:
            progressed = False
            for name in list(order):
                ports = free_by_switch[name]
                if ports:
                    lease.append(ports.pop(0))
                    progressed = True
                    if len(lease) == count:
                        break
                else:
                    order.remove(name)
            if not progressed:
                break
        if len(lease) < count:
            raise AdmissionError(
                f"tenant {tenant_id!r} asked for {count} host ports, "
                f"only {len(lease)} are free",
                problems=[
                    f"{count - len(lease)} host ports short of the quota"
                ],
            )
        return tuple(lease)

    def adopt_sessions(
        self, sessions: list[TenantSession], *, next_index: int | None = None
    ) -> None:
        """Adopt recovered sessions (service restart, DESIGN.md §8).

        The sessions come from a snapshot's ``sessions`` records and
        the journal's session records via
        :func:`repro.recovery.recover` — leases, cookie-block indices
        and ``_next_seq`` counters intact, deployments unlinked (their
        rule state is restored onto the switches separately). The
        index counter resumes past every adopted index (or at
        ``next_index`` when the snapshot recorded the service's own
        counter), so a tenant admitted after the restart can never be
        granted a cookie block that pre-crash rules already use.

        Each active session then *adopts* the cookies found in its
        namespace on the recovered switches: the pre-crash rule
        generations stay attributable to their owner (so the isolation
        verifier passes on the next commit), chargeable against the
        TCAM quota, and strippable on evict — even though their
        :class:`Deployment` objects are gone. Its ``_next_seq`` moves
        past every adopted cookie: the recorded counter predates any
        deploy committed after the last snapshot or session record,
        and must not re-mint a cookie those rules carry.
        """
        with self._lock:
            for session in sessions:
                self.sessions[session.tenant_id] = session
                self._next_index = max(self._next_index, session.index + 1)
            if next_index is not None:
                self._next_index = max(self._next_index, next_index)
            active = [
                s for s in sessions if s.state == SESSION_ACTIVE
            ]
            for name, sw in self.cluster.switches.items():
                for cookie, count in sw.occupancy_by_cookie().items():
                    for session in active:
                        if session.owns_cookie(cookie):
                            session.adopted.setdefault(cookie, {})[
                                name
                            ] = count
                            session._next_seq = max(
                                session._next_seq,
                                cookie - session.cookie_base + 1,
                            )
                            break
            self._verify()

    def _journal_session(self, session: TenantSession) -> None:
        """Make a session open or end durable: one journal record,
        written under the caller's lock so it takes its place in the
        commits' LSN order."""
        journal = active_journal()
        if journal is not None:
            journal.append_session(session.to_state(), self._next_index)

    def _end_session(self, tenant_id: str, final_state: str) -> None:
        with self._lock, trace.span(
            "tenant.end_session", tenant=tenant_id, state=final_state
        ):
            session = self._session(tenant_id)
            session.check_active()
            for name in sorted(session.deployments):
                self.controller.undeploy(session.deployments.pop(name))
            # strip adopted pre-restart generations by cookie: their
            # Deployment objects are gone, but the rules are live
            for cookie in sorted(session.adopted):
                self.controller.undeploy_cookie(
                    cookie, sorted(session.adopted[cookie])
                )
            session.adopted = {}
            session.state = final_state
            session.lease = ()
            self._journal_session(session)
            reg = metrics.registry()
            # the tenant holds nothing now: its series go, not to zero
            for gauge in (
                "tenant_host_ports_leased",
                "tenant_host_ports_used",
                "tenant_deployments",
            ):
                reg.gauge(gauge).remove(tenant=tenant_id)
            for name in self.cluster.switches:
                reg.gauge("tenant_tcam_entries").remove(
                    tenant=tenant_id, switch=name
                )
            reg.gauge("tenant_sessions_active").set(len(self._active()))
            self._verify()

    def _session(self, tenant_id: str) -> TenantSession:
        session = self.sessions.get(tenant_id)
        if session is None:
            raise ConfigurationError(f"unknown tenant {tenant_id!r}")
        return session

    # --- operations -----------------------------------------------------
    def make_operation(self, kind: str, tenant_id: str, **kwargs) -> Operation:
        """Build (but do not queue) one schedulable operation.

        This is the single source of operation bodies, and the only way
        tenant work reaches the controller: callers submit the result
        to :attr:`scheduler`, directly or through the asyncio front in
        :mod:`repro.service`. Supported kinds: ``deploy``,
        ``reconfigure``, ``undeploy`` (the deployment's existence is
        checked when it runs, so it may name a deployment an
        earlier-queued operation of the same tenant creates), and
        ``evict`` / ``close`` (they tear down every deployment the
        tenant owns after everything it queued before them; the session
        ends EVICTED or CLOSED, and an evicted tenant may be re-admitted
        with :meth:`open_session` under a fresh cookie block and lease).
        ``deploy``, ``reconfigure`` and ``undeploy`` refuse an unknown
        or ended session here, on the caller's thread, without taking
        the service lock.
        """
        if kind == "deploy":
            config = kwargs["config"]
            self._session(tenant_id).check_active()
            fn = partial(self._do_deploy, tenant_id, config)
        elif kind == "reconfigure":
            name, config = kwargs["name"], kwargs["config"]
            self._session(tenant_id).check_active()
            fn = partial(self._do_reconfigure, tenant_id, name, config)
        elif kind == "undeploy":
            name = kwargs["name"]
            self._session(tenant_id).check_active()
            fn = partial(self._do_undeploy, tenant_id, name)
        elif kind in SESSION_END_KINDS:
            final = SESSION_EVICTED if kind == "evict" else SESSION_CLOSED
            fn = partial(self._end_session, tenant_id, final)
        else:
            raise ConfigurationError(f"unknown operation kind {kind!r}")
        return Operation(kind=kind, tenant_id=tenant_id, fn=fn)

    # --- operation bodies (run on the scheduler's worker) ----------------
    def _do_deploy(self, tenant_id: str, config: ConfigLike) -> Deployment:
        with self._lock:
            session = self._session(tenant_id)
            session.check_active()
            prep = self.admission.admit_deploy(session, config)
            if prep.topology.name in session.deployments:
                self.controller.release_preparation(prep)
                raise ConfigurationError(
                    f"tenant {tenant_id!r} already deploys "
                    f"{prep.topology.name!r}"
                )
            deployment = self.controller.deploy_prepared(prep)
            session.deployments[deployment.name] = deployment
            self._after_commit(session)
            return deployment

    def _do_reconfigure(
        self, tenant_id: str, name: str, config: ConfigLike
    ) -> Deployment:
        with self._lock:
            session = self._session(tenant_id)
            session.check_active()
            old = session.deployments.get(name)
            if old is None:
                raise ConfigurationError(
                    f"tenant {tenant_id!r} has no deployment {name!r}"
                )
            cookie = session.next_cookie()  # one per request, refused or not
            request = self.admission.admit_request(session, config, old)
            try:
                deployment, _ = self.controller.edit(
                    old,
                    request,
                    lease=session.lease,
                    cookie=cookie,
                    admit=partial(self.admission.admit_swap, session, old),
                )
            except ProjectionError as exc:
                # no staging fits (wiring, flow tables or the tenant's
                # share): refused before the commit touched a switch
                self.admission.refuse(session, exc)
            del session.deployments[name]
            session.deployments[deployment.name] = deployment
            self._after_commit(session)
            return deployment

    def _do_undeploy(self, tenant_id: str, name: str) -> float:
        with self._lock:
            session = self._session(tenant_id)
            session.check_active()
            deployment = session.deployments.pop(name, None)
            if deployment is None:
                raise ConfigurationError(
                    f"tenant {tenant_id!r} has no deployment {name!r}"
                )
            elapsed = self.controller.undeploy(deployment)
            self._after_commit(session)
            return elapsed

    def _after_commit(self, session: TenantSession) -> None:
        reg = metrics.registry()
        reg.gauge("tenant_deployments").set(
            len(session.deployments), tenant=session.tenant_id
        )
        reg.gauge("tenant_host_ports_used").set(
            session.host_ports_used(), tenant=session.tenant_id
        )
        self._verify()

    def _active(self) -> list[TenantSession]:
        return [s for s in self.sessions.values() if s.state == SESSION_ACTIVE]

    def _verify(self) -> None:
        """Re-prove cross-tenant isolation against actual switch state."""
        self.verifier.verify(self._active())

    # --- observability ----------------------------------------------------
    def status(self) -> dict:
        """JSON-safe snapshot: pool occupancy + headroom, per tenant."""
        with self._lock:
            switches = {}
            for name, info in sorted(
                self.cluster.capacity_report().items()
            ):
                occupancy = self.cluster.switches[name].occupancy_by_cookie()
                switches[name] = {
                    "flow_entries": info["flow_entries"],
                    "flow_capacity": info["flow_capacity"],
                    "flow_headroom": info["flow_capacity"]
                    - info["flow_entries"],
                    "host_ports": info["host_ports"],
                    "by_cookie": {
                        str(c): n for c, n in sorted(occupancy.items())
                    },
                }
            return {
                "switches": switches,
                "tenants": {
                    t: s.snapshot() for t, s in sorted(self.sessions.items())
                },
                "queue_depths": self.scheduler.queue_depths,
                "deployments": sorted(
                    d.name for d in self.controller.deployments
                ),
            }

    # --- lifecycle --------------------------------------------------------
    def shutdown(self) -> None:
        """Drain pending work and stop the scheduler. Sessions stay
        queryable via :meth:`status`."""
        self.scheduler.shutdown()
