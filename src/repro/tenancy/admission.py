"""Admission control: validate tenant requests before any switch is touched.

The binding resources of a shared SDT pool are the per-switch TCAMs
(§IV, Table 2), the cabled host ports, and the inter-switch/self links.
Admission runs every check against the *exact* preparation that would
be installed — not an estimate — and guarantees **zero mutation on
reject**: a refused request leaves every flow table bit-identical to
before it arrived, because

* preparation (:meth:`~repro.core.controller.controller.SDTController.prepare`)
  is pure — projection and rule synthesis touch no hardware;
* pool capacity is priced by the controller's own update-discipline
  policy
  (:meth:`~repro.core.controller.controller.SDTController.stage_swap`):
  the prepared rules — and, for a swap, the old cookie's deletes — are
  staged exactly as the commit will stage them, make-before-break
  first and break-before-make if that does not fit, and checked with
  :meth:`~repro.openflow.transaction.ControlTransaction.validate`
  (never ``commit``) — the same exact peak-entry simulation a commit
  runs, so admission admits precisely what the controller can apply;
* on a hybrid pool, flex circuits minted during preparation are
  released before the rejection is raised.

Quota violations and pool-capacity shortfalls both surface as
:class:`~repro.util.errors.AdmissionError` with the individual problems
listed, mirroring the paper's checking function ("inform the user of
the necessary modification").
"""

from __future__ import annotations

from repro.core.controller.config import TopologyConfig
from repro.core.controller.controller import (
    BREAK_BEFORE_MAKE,
    Deployment,
    Prepared,
    SDTController,
)
from repro.hardware.wiring import HostPort
from repro.telemetry import metrics, trace
from repro.tenancy.session import TenantSession
from repro.topology.graph import Topology
from repro.util.errors import AdmissionError, CapacityError, ProjectionError


class AdmissionController:
    """Vets tenant deploy/reconfigure requests against quotas and the
    pool's remaining capacity."""

    def __init__(self, controller: SDTController) -> None:
        self.controller = controller

    # --- public API -----------------------------------------------------
    def admit_deploy(
        self, session: TenantSession, config: TopologyConfig | Topology
    ) -> Prepared:
        """Validate a fresh deployment; returns the admitted preparation
        (install it with ``deploy_prepared``) or raises
        :class:`AdmissionError` having touched nothing."""
        with trace.span(
            "tenant.admission", tenant=session.tenant_id, op="deploy"
        ) as sp:
            topology = self._build(config)
            sp.set("topology", topology.name)
            problems = self._host_quota_problems(session, topology, old=None)
            if problems:
                self._reject(session, problems)
            prep = self._prepare(
                session, config, exclude=self._exclude_for(session)
            )
            problems = self._post_prepare_problems(session, prep, old=None)
            if problems:
                self.controller.release_preparation(prep)
                self._reject(session, problems)
            self._count(session, admitted=True)
            return prep

    def admit_swap(
        self,
        session: TenantSession,
        old: Deployment,
        config: TopologyConfig | Topology,
    ) -> tuple[Prepared, bool]:
        """Validate replacing ``old`` with ``config`` for this tenant.

        Returns ``(preparation, make_before_break)``: when the pool can
        hold both generations the preparation is projected *alongside*
        the old deployment and the swap may go make-before-break;
        otherwise the preparation reuses the old deployment's wiring
        and the caller must swap break-before-make.
        """
        with trace.span(
            "tenant.admission", tenant=session.tenant_id, op="swap"
        ) as sp:
            topology = self._build(config)
            sp.set("topology", topology.name)
            problems = self._host_quota_problems(session, topology, old=old)
            if problems:
                self._reject(session, problems)

            occupied = self.controller._occupied()
            foreign = self._foreign_host_ports(session)
            old_resources = set(old.projection.link_realization.values())
            try:
                # make-before-break: project alongside the live generation
                prep = self.controller.prepare(
                    config,
                    exclude=occupied | foreign,
                    cookie=session.next_cookie(),
                )
                mbb = True
            except (CapacityError, ProjectionError):
                # the pool cannot hold both generations at once: reuse
                # the old deployment's wiring (break-before-make)
                prep = self._prepare(
                    session,
                    config,
                    exclude=(occupied - old_resources) | foreign,
                )
                mbb = False
            if mbb and not self._transient_share_ok(session, prep, old):
                # both generations may fit the pool but would transiently
                # exceed the tenant's own TCAM share: break first
                mbb = False
            problems = self._post_prepare_problems(session, prep, old, mbb)
            if problems:
                self.controller.release_preparation(prep)
                self._reject(session, problems)
            sp.set("make_before_break", mbb)
            self._count(session, admitted=True)
            return prep, mbb

    # --- internals ------------------------------------------------------
    @staticmethod
    def _build(config: TopologyConfig | Topology) -> Topology:
        return config if isinstance(config, Topology) else config.build()

    def _exclude_for(self, session: TenantSession) -> set:
        """Resources a tenant preparation may not claim: everything a
        live deployment holds, plus every host port outside the
        tenant's lease (the lease is the only place its hosts may
        land)."""
        return self.controller._occupied() | self._foreign_host_ports(session)

    def _foreign_host_ports(self, session: TenantSession) -> set:
        leased = set(session.lease)
        return {
            hp
            for hp in self.controller.cluster.wiring.host_ports
            if hp not in leased
        }

    def _prepare(
        self,
        session: TenantSession,
        config: TopologyConfig | Topology,
        *,
        exclude: set,
    ) -> Prepared:
        """Run the controller's pure preparation under admission
        semantics: infeasibility is a rejection, not a crash."""
        try:
            return self.controller.prepare(
                config, exclude=exclude, cookie=session.next_cookie()
            )
        except (CapacityError, ProjectionError) as exc:
            self._reject(session, [str(exc)])
            raise AssertionError("unreachable") from exc

    def _host_quota_problems(
        self,
        session: TenantSession,
        topology: Topology,
        old: Deployment | None,
    ) -> list[str]:
        freed = 0
        if old is not None:
            freed = sum(
                1
                for r in old.projection.link_realization.values()
                if isinstance(r, HostPort)
            )
        used = session.host_ports_used() - freed
        needed = len(topology.hosts)
        problems = []
        if used + needed > session.quota.host_ports:
            problems.append(
                f"needs {needed} host ports, {used} of the "
                f"{session.quota.host_ports}-port quota already bound"
            )
        return problems

    def _post_prepare_problems(
        self,
        session: TenantSession,
        prep: Prepared,
        old: Deployment | None,
        make_before_break: bool = True,
    ) -> list[str]:
        """Checks that need the exact preparation: per-switch TCAM
        share, optical budget, and pool-wide transaction validation
        (``make_before_break`` is the discipline the swap will ask the
        controller for)."""
        problems: list[str] = []

        # per-switch TCAM share (steady state after the mutation lands)
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

        # optical-circuit budget
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

        # pool remaining capacity: the staging and validation the
        # commit will run — including its make-before-break →
        # break-before-make fallback — without committing (zero
        # mutation on reject)
        try:
            txn, strategy = self.controller.stage_swap(
                f"admission {session.tenant_id}",
                prep.rules,
                [] if old is None else [old],
                prefer_make_before_break=make_before_break,
            )
            if strategy == BREAK_BEFORE_MAKE:
                txn.validate()  # the fallback comes back unpriced
        except CapacityError as exc:
            problems.append(str(exc))
        return problems

    def _transient_share_ok(
        self, session: TenantSession, prep: Prepared, old: Deployment
    ) -> bool:
        """Whether old + new generations together stay within the
        tenant's per-switch share (make-before-break's transient peak)."""
        used = session.tcam_used()
        for sw, n in prep.rules.per_switch_counts().items():
            if used.get(sw, 0) + n > session.quota.tcam_share:
                return False
        return True

    def _reject(self, session: TenantSession, problems: list[str]) -> None:
        self._count(session, admitted=False)
        raise AdmissionError(
            f"tenant {session.tenant_id!r} request rejected: "
            + "; ".join(problems),
            problems=problems,
        )

    @staticmethod
    def _count(session: TenantSession, *, admitted: bool) -> None:
        metrics.registry().counter("tenant_admission_total").inc(
            1,
            tenant=session.tenant_id,
            decision="admitted" if admitted else "rejected",
        )


__all__ = ["AdmissionController", "AdmissionError"]
