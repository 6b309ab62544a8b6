"""Admission control: validate tenant requests before any switch is touched.

The binding resources of a shared SDT pool are the per-switch TCAMs
(§IV, Table 2), the cabled host ports, and the inter-switch/self links.
Admission runs every check against the *exact* change that would be
installed — not an estimate — and guarantees **zero mutation on
reject**: a refused request leaves every flow table bit-identical to
before it arrived, because

* a request is built once (:meth:`AdmissionController.admit_request`)
  and its host-port quota checked on that topology, before anything is
  routed, projected or synthesized;
* a deploy is vetted on its preparation
  (:meth:`~repro.core.controller.controller.SDTController.prepare`),
  which is pure — projection and rule synthesis touch no hardware —
  and its pool capacity is priced with
  :meth:`~repro.openflow.transaction.ControlTransaction.validate`
  (never ``commit``);
* an edit is vetted inside the controller's one per-deployment edit
  (:meth:`~repro.core.controller.controller.SDTController.edit`):
  :meth:`AdmissionController.admit_swap` sees every transaction the
  edit stages, after ``validate()`` has priced it against the pool and
  before it commits, so admission admits precisely what the controller
  applies;
* on a hybrid pool, flex circuits minted during preparation are
  released before the rejection is raised.

Quota violations and pool-capacity shortfalls both surface as
:class:`~repro.util.errors.AdmissionError` with the individual problems
listed, mirroring the paper's checking function ("inform the user of
the necessary modification").
"""

from __future__ import annotations

from typing import NoReturn

from repro.core.controller.config import TopologyConfig
from repro.core.controller.controller import (
    Deployment,
    Prepared,
    Request,
    SDTController,
)
from repro.hardware.wiring import HostPort
from repro.openflow.transaction import ControlTransaction
from repro.telemetry import metrics, trace
from repro.tenancy.session import TenantSession
from repro.topology.graph import Topology
from repro.util.errors import (
    AdmissionError,
    CapacityError,
    ConfigurationError,
    ProjectionError,
)


class AdmissionController:
    """Vets tenant deploy/reconfigure requests against quotas and the
    pool's remaining capacity."""

    def __init__(self, controller: SDTController) -> None:
        self.controller = controller

    # --- public API -----------------------------------------------------
    def admit_request(
        self,
        session: TenantSession,
        config: TopologyConfig | Topology,
        old: Deployment | None = None,
    ) -> Request:
        """Build the tenant's request once — an edit of ``old`` (None
        for a deploy) against ``old``'s topology — and check the
        host-port quota on it: an over-quota request is rejected for
        that alone, the reason a tenant can act on, before anything is
        routed, projected or synthesized."""
        request = self.controller.request(
            config, None if old is None else old.topology
        )
        freed = 0
        if old is not None:  # the edited deployment's host ports
            freed = sum(
                1
                for r in old.projection.link_realization.values()
                if isinstance(r, HostPort)
            )
        used = session.host_ports_used() - freed
        needed = len(request.topology.hosts)
        if used + needed > session.quota.host_ports:
            self.reject(session, [
                f"needs {needed} host ports, {used} of the "
                f"{session.quota.host_ports}-port quota already bound"
            ])
        return request

    def admit_deploy(
        self, session: TenantSession, config: TopologyConfig | Topology
    ) -> Prepared:
        """Validate a fresh deployment; returns the admitted preparation
        (install it with ``deploy_prepared``) or raises
        :class:`AdmissionError` having touched nothing. The host-port
        quota goes first (:meth:`admit_request`); the preparation reads
        the same request."""
        with trace.span(
            "tenant.admission", tenant=session.tenant_id, op="deploy"
        ) as sp:
            # one cookie per request, refused or not
            cookie = session.next_cookie()
            request = self.admit_request(session, config)
            sp.set("topology", request.topology.name)
            try:
                prep = self.controller.prepare(
                    request, lease=session.lease, cookie=cookie
                )
            except ProjectionError as exc:
                self.refuse(session, exc)
            problems = self._steady_problems(session, prep, old=None)
            try:
                self.controller._stage_generation(
                    f"admission {session.tenant_id}", prep.rules
                ).validate()
            except CapacityError as exc:
                problems.append(str(exc))
            if problems:
                self.controller.release_preparation(prep)
                self.reject(session, problems)
            self._count(admitted=True)
            return prep

    def refuse(self, session: TenantSession, exc: ProjectionError) -> NoReturn:
        """Reject a request no staging could place: the wiring's or the
        flow tables' refusal ``exc``, as :class:`AdmissionError`."""
        self.reject(session, [str(exc)])

    def admit_swap(
        self,
        session: TenantSession,
        old: Deployment,
        txn: ControlTransaction,
        prep: Prepared,
    ) -> None:
        """Vet one staged attempt at editing ``old`` into ``prep``.

        :meth:`~repro.core.controller.controller.SDTController.edit`
        calls this, as its ``admit``, on every transaction it stages for
        the tenant — after ``validate()`` has priced it against the pool
        and before it commits. Steady-state problems (the per-switch
        TCAM share once the edit lands, the optical budget) reject the
        request with :class:`AdmissionError`. A transient peak over the
        share (``txn.peak_entry_counts()``: an incremental delta's
        additions, or both generations under make-before-break) refuses
        only this staging, with ``CapacityError``; the edit goes on to
        the next one, and break-before-make never peaks above the
        steady state. Whether the tenant already deploys the topology
        under another name is checked first (ConfigurationError
        abandons the edit); the host-port quota went before the edit
        began (:meth:`admit_request`).
        """
        with trace.span(
            "tenant.admission", tenant=session.tenant_id, op="swap"
        ) as sp:
            sp.set("topology", prep.topology.name)
            if prep.topology.name != old.name and (
                prep.topology.name in session.deployments
            ):
                raise ConfigurationError(
                    f"tenant {session.tenant_id!r} already deploys "
                    f"{prep.topology.name!r}"
                )
            problems = self._steady_problems(session, prep, old)
            if problems:
                self.reject(session, problems)
            used = session.tcam_used()
            switches = self.controller.cluster.switches
            over = []
            for sw, peak in sorted(txn.peak_entry_counts().items()):
                at_peak = used.get(sw, 0) + peak - switches[sw].num_entries
                if at_peak > session.quota.tcam_share:
                    over.append(
                        f"{sw}: would peak at {at_peak} flow entries "
                        f"mid-commit, quota is {session.quota.tcam_share} "
                        "per switch"
                    )
            if over:
                raise CapacityError("; ".join(over))
            self._count(admitted=True)

    def reject(self, session: TenantSession, problems: list[str]) -> NoReturn:
        """Refuse the tenant's request: always raises
        :class:`AdmissionError`."""
        self._count(admitted=False)
        raise AdmissionError(
            f"tenant {session.tenant_id!r} request rejected: "
            + "; ".join(problems),
            problems=problems,
        )

    # --- internals ------------------------------------------------------
    def _steady_problems(
        self, session: TenantSession, prep: Prepared, old: Deployment | None
    ) -> list[str]:
        """The tenant's per-switch TCAM share and optical budget once
        ``prep`` has replaced ``old`` (None for a deploy)."""
        problems: list[str] = []

        used = session.tcam_used()
        if old is not None:
            for sw, n in old.rules.per_switch_counts().items():
                used[sw] = used.get(sw, 0) - n
        for sw, n in sorted(prep.rules.per_switch_counts().items()):
            after = used.get(sw, 0) + n
            if after > session.quota.tcam_share:
                problems.append(
                    f"{sw}: would hold {after} flow entries, quota is "
                    f"{session.quota.tcam_share} per switch"
                )

        minted = (
            len(prep.hybrid_plan.circuits) if prep.hybrid_plan is not None else 0
        )
        if minted:
            freed = 0
            if old is not None and old.hybrid_plan is not None:
                freed = len(old.hybrid_plan.circuits)
            after = session.optical_circuits_used() - freed + minted
            if after > session.quota.optical_circuits:
                problems.append(
                    f"would hold {after} optical circuits, budget is "
                    f"{session.quota.optical_circuits}"
                )
        return problems

    @staticmethod
    def _count(*, admitted: bool) -> None:
        metrics.registry().counter("tenant_admission_total").inc(
            1, decision="admitted" if admitted else "rejected"
        )


__all__ = ["AdmissionController", "AdmissionError"]
