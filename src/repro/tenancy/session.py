"""Tenant sessions: quotas, cookie namespaces, host-port leases.

One SDT pool can host many logical topologies at once (§VI-B deploys
two and shows no leakage); what turns that into a *service* is naming
who owns what. A :class:`TenantSession` is the unit of ownership:

* a **cookie namespace** — a disjoint block of the 64-bit OpenFlow
  cookie space; every flow entry a tenant installs carries a cookie
  from its block, so on-switch state is attributable (and strippable)
  per tenant by cookie alone;
* a **host-port lease** — the specific cabled host ports the tenant's
  topologies may bind hosts to, granted at admission and released at
  close/evict;
* a :class:`TenantQuota` — the per-switch TCAM share, host-port count
  and optical-circuit budget admission control enforces.

Sessions never touch hardware themselves; they are the ledger the
:class:`~repro.tenancy.admission.AdmissionController` charges and the
:class:`~repro.tenancy.isolation.IsolationVerifier` audits.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.core.controller.controller import Deployment
from repro.hardware.wiring import HostPort
from repro.util.errors import ConfigurationError

#: cookies per tenant namespace. Tenant ``index`` (1-based) owns
#: ``[index << 20, (index + 1) << 20)``; the controller's own sequential
#: cookies live below ``1 << 20``, so manual deployments on the same
#: pool can never collide with a tenant's block.
TENANT_COOKIE_SPACE = 1 << 20

SESSION_ACTIVE = "active"
SESSION_EVICTED = "evicted"
SESSION_CLOSED = "closed"


@dataclass(frozen=True)
class TenantQuota:
    """Resource ceilings admission control enforces for one tenant."""

    #: host ports the tenant may lease (and therefore hosts it may bind)
    host_ports: int
    #: max flow entries the tenant may hold on any single physical
    #: switch — its share of the binding resource (§VII-C: TCAM)
    tcam_share: int
    #: flex circuits the tenant may mint on a hybrid (SDT-OS) pool
    optical_circuits: int = 0

    def __post_init__(self) -> None:
        if self.host_ports < 1:
            raise ConfigurationError(
                f"quota needs >= 1 host port, got {self.host_ports}"
            )
        if self.tcam_share < 1:
            raise ConfigurationError(
                f"quota needs >= 1 flow entry per switch, got {self.tcam_share}"
            )
        if self.optical_circuits < 0:
            raise ConfigurationError(
                f"optical circuit budget cannot be negative, "
                f"got {self.optical_circuits}"
            )

    @classmethod
    def from_dict(cls, data: object) -> "TenantQuota":
        """Parse the JSON form (API request, scenario file, snapshot):
        integer ``host_ports`` and ``tcam_share``, optional integer
        ``optical_circuits``. Anything else, an unknown key included,
        is a ConfigurationError."""
        if not isinstance(data, dict):
            raise ConfigurationError("quota must be an object")
        fields = {"optical_circuits": 0, **data}
        names = ("host_ports", "tcam_share", "optical_circuits")
        unknown = set(fields) - set(names)
        if unknown:
            raise ConfigurationError(f"unknown quota keys: {sorted(unknown)}")
        for name in names:
            value = fields.get(name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigurationError(
                    f"quota field {name!r} must be an integer, "
                    f"got {value!r}"
                )
        return cls(*(fields[name] for name in names))


@dataclass
class TenantSession:
    """One tenant's live state on a shared pool."""

    tenant_id: str
    #: 1-based admission index; fixes the cookie namespace block
    index: int
    quota: TenantQuota
    #: host ports leased to this tenant (disjoint from every other
    #: session's lease for the pool's lifetime of the session)
    lease: tuple[HostPort, ...]
    state: str = SESSION_ACTIVE
    #: live deployments by topology name
    deployments: dict[str, Deployment] = field(default_factory=dict)
    #: pre-restart rule generations adopted at recovery: cookie ->
    #: per-switch installed-entry counts. Recovery restores a crashed
    #: service's switch tables bit-identically but does not rebuild
    #: ``Deployment`` objects (DESIGN.md §7), so the cookies found in
    #: this session's namespace are adopted here instead — keeping the
    #: rules attributable (isolation audit), chargeable (TCAM quota)
    #: and strippable (evict tears them down by cookie). Adopted
    #: generations cannot be reconfigured by name; host-port usage from
    #: before the crash is not reconstructed.
    adopted: dict[int, dict[str, int]] = field(default_factory=dict)
    _next_seq: int = 0

    # --- cookie namespace ----------------------------------------------
    @property
    def cookie_base(self) -> int:
        return self.index * TENANT_COOKIE_SPACE

    def owns_cookie(self, cookie: int) -> bool:
        return self.cookie_base <= cookie < self.cookie_base + TENANT_COOKIE_SPACE

    def next_cookie(self) -> int:
        """Mint the next cookie in this tenant's namespace. Cookies are
        never reused within a session — a stale rule can then never be
        mistaken for a live generation's."""
        if self._next_seq >= TENANT_COOKIE_SPACE:
            raise ConfigurationError(
                f"tenant {self.tenant_id!r} exhausted its cookie namespace"
            )
        cookie = self.cookie_base + self._next_seq
        self._next_seq += 1
        return cookie

    @property
    def cookies(self) -> set[int]:
        """Cookies tagging this tenant's live flow entries — current
        deployments plus generations adopted from before a restart."""
        return {d.cookie for d in self.deployments.values()} | set(
            self.adopted
        )

    # --- resource ledgers ----------------------------------------------
    @property
    def leased_hosts(self) -> set[str]:
        return {hp.host for hp in self.lease}

    def host_ports_used(self) -> int:
        """Leased ports currently bound by live deployments."""
        return sum(
            1
            for d in self.deployments.values()
            for r in d.projection.link_realization.values()
            if isinstance(r, HostPort)
        )

    def tcam_used(self) -> dict[str, int]:
        """Per-physical-switch flow entries this tenant's deployments
        hold (what admission charges against ``quota.tcam_share``)."""
        used: dict[str, int] = {}
        for d in self.deployments.values():
            for sw, n in d.rules.per_switch_counts().items():
                used[sw] = used.get(sw, 0) + n
        for per_switch in self.adopted.values():
            for sw, n in per_switch.items():
                used[sw] = used.get(sw, 0) + n
        return used

    def optical_circuits_used(self) -> int:
        return sum(
            len(d.hybrid_plan.circuits)
            for d in self.deployments.values()
            if d.hybrid_plan is not None
        )

    # --- lifecycle -------------------------------------------------------
    def check_active(self) -> None:
        if self.state != SESSION_ACTIVE:
            raise ConfigurationError(
                f"tenant {self.tenant_id!r} session is {self.state}"
            )

    def snapshot(self) -> dict:
        """JSON-safe summary for ``repro status`` and telemetry."""
        return {
            "tenant": self.tenant_id,
            "state": self.state,
            "cookie_base": self.cookie_base,
            "quota": asdict(self.quota),
            "host_ports_leased": len(self.lease),
            "host_ports_used": self.host_ports_used(),
            "tcam_used": dict(sorted(self.tcam_used().items())),
            "deployments": sorted(self.deployments),
        }

    # --- durability (DESIGN.md §7) ---------------------------------------
    def to_state(self) -> dict:
        """The session's durable identity for controller snapshots.

        Everything needed to reconstruct ownership after a crash:
        quota, lease, cookie-block index, and — critically —
        ``_next_seq``, so a recovered session keeps the never-reuse-a-
        cookie guarantee across the restart (a reset counter could mint
        a cookie that still tags pre-crash rules). Live ``Deployment``
        objects are recorded by name only; their rule state recovers
        through the snapshot/journal replay path.
        """
        return {
            "tenant": self.tenant_id,
            "index": self.index,
            "state": self.state,
            "quota": asdict(self.quota),
            "next_seq": self._next_seq,
            "lease": [[hp.switch, hp.port, hp.host] for hp in self.lease],
            "deployments": sorted(self.deployments),
        }

    @classmethod
    def from_state(cls, state: dict) -> "TenantSession":
        """Rebuild a session from :meth:`to_state` output (deployments
        start empty; the recovery driver re-links them)."""
        session = cls(
            tenant_id=state["tenant"],
            index=state["index"],
            quota=TenantQuota.from_dict(state["quota"]),
            lease=tuple(
                HostPort(switch=sw, port=port, host=host)
                for sw, port, host in state["lease"]
            ),
            state=state["state"],
        )
        session._next_seq = state["next_seq"]
        return session
