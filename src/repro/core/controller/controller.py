"""The SDT controller (§V).

Four modules, mirroring Fig. 9:

* **Topology Customization** — :meth:`SDTController.check` (the
  checking function) and :meth:`SDTController.deploy` (the deployment
  function): logical topology in, flow tables out, fully automated.
* **Routing Strategy** — pluggable strategies (Table III) compiled into
  table-1 rules; per-flow overrides for active routing.
* **Deadlock Avoidance** — CDG acyclicity verified before *every*
  lossless install — initial deployment, route update, and failure
  repair alike (refusing to install a deadlockable configuration).
* **Network Monitor** — :class:`~repro.core.controller.monitor.NetworkMonitor`.

The paper has *one* deployment function (check → project → route → vet
→ push flow tables), and so does this module: every entry point that
mutates the data plane — ``deploy``, ``deploy_prepared``, ``edit``
(incremental, or a cold generation swap of the one deployment),
``reconfigure`` (``edit`` of the one live deployment), ``undeploy``,
``undeploy_cookie``, ``update_routes``, ``fail_link``,
``restore_links``, ``install_flow_override``, ``reconcile`` — plans its
change, calls the shared stages, and updates its own books. Each stage
is written once (DESIGN.md §4b has the per-entry-point table):

1. **request + vet** — :meth:`SDTController.request` (the topology,
   built or spliced once per operation),
   :meth:`SDTController._routes_for`, :func:`_vet` (Deadlock Avoidance
   for lossless installs);
2. **stage** — :meth:`SDTController._stage_generation` stages a
   generation change (a new rule set and/or cookie deletes of old
   generations, installs first or deletes first);
   :func:`_with_discipline` is the update-discipline *policy*:
   make-before-break whenever the flow tables can hold both
   generations (equal-priority lookups prefer the earlier-installed
   entry, so there is no forwarding gap), break-before-make otherwise;
3. **commit** — a :class:`~repro.openflow.transaction.ControlTransaction`,
   therefore **failure-atomic**: all validation (capacity, deadlock
   freedom, projection feasibility) runs before any rule is touched,
   and a mid-flight control-channel failure rolls every switch back to
   its pre-transaction rule set;
4. **optics guard + account** — :meth:`SDTController.mutation`, the
   frame every entry point runs in: on failure the optical circuit
   switch is returned to its pre-mutation circuits (and a consumed
   preparation's circuits are released) with all bookkeeping untouched;
   on success one epilogue publishes the span attributes and counters.
   A mutation's modeled time has one definition — optical mint +
   transaction commit + optical release (:class:`Mutation`).

Each stage runs under a child span of the ``controller.*`` root, named
as the performance ledger names it (DESIGN.md §5), so a trace answers
"where did this mutation's time go".

Several topologies can coexist (disjoint wiring resources + disjoint
metadata tags + disjoint cookies) — the hardware-isolation experiment
of §VI-B deploys two and shows no packet leakage.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

from repro.core.controller.config import TopologyConfig
from repro.core.controller.monitor import NetworkMonitor
from repro.core.projection.base import ProjectionResult
from repro.core.projection.delta import project_delta
from repro.core.projection.hybrid import (
    HybridLinkProjection,
    HybridPlan,
    live_circuits,
    release_circuits,
)
from repro.core.projection.linkproj import HOST_PORTS, SELF_LINKS, FreeWiring, LinkProjection
from repro.core.projection.pruning import UsageSet, route_usage
from repro.core.rules import (
    RuleSet,
    flow_override,
    split_ruleset_delta,
    synthesize_rules,
    unchanged_blocks,
)
from repro.hardware.cluster import PhysicalCluster
from repro.hardware.optical import OpticalCircuitSwitch
from repro.openflow.transaction import ControlTransaction
from repro.partition.cache import PartitionCache, extend_partition
from repro.routing.deadlock import assert_deadlock_free
from repro.topology.diff import TopologyDiff, diff_topologies
from repro.routing.repair import reroute_avoiding
from repro.routing.strategies import (
    STRATEGIES,
    repair_routes,
    routes_for,
    strategy_for,
)
from repro.routing.table import RouteTable
from repro.telemetry import metrics, trace
from repro.topology.graph import Topology
from repro.util.errors import (
    CapacityError,
    ConfigurationError,
    ProjectionError,
    TopologyError,
)

#: what the Routing Strategy module calls, by registry key
_STRATEGIES = {"auto": routes_for, **STRATEGIES}

MAKE_BEFORE_BREAK = "make-before-break"
BREAK_BEFORE_MAKE = "break-before-make"


def _stage(name: str, fn: Callable, *args, **kwargs):
    """Run one pipeline stage under a child span named as the
    performance ledger names the stage.

    The span always closes ``ok``: a stage that raises has *refused*,
    and several callers turn a refusal into a change of plan
    (make-before-break → break-before-make, incremental → cold), so
    only the ``controller.*`` root reports a mutation's failure. The
    refusal is kept as the ``raised`` attribute."""
    sp = trace.span(name)
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        sp.set("raised", type(exc).__name__)
        raise
    finally:
        sp.close()


# --- the mutation pipeline: request + vet ----------------------------------
@dataclass(frozen=True)
class Request:
    """What one operation asks for, built once
    (:meth:`SDTController.request`): every staging the operation tries
    reads it, and so does tenant admission."""

    topology: Topology
    config: TopologyConfig | None
    #: the routing name asked for ("auto" for a bare topology)
    routing: str
    lossless: bool
    #: the diff from the live topology an edit replaces; None for a
    #: deploy, or when a node changed kind, which no incremental edit
    #: can follow
    diff: TopologyDiff | None = None


def _vet(routes: RouteTable, lossless: bool) -> RouteTable:
    """The Deadlock Avoidance module: refuse a deadlockable route table
    on a lossless net — on *every* route install (initial deployment,
    edit, route update, failure repair; §V-3)."""
    if lossless:
        _stage("routing.deadlock", assert_deadlock_free, routes)
    return routes


def _usage(
    req: Request, routes: RouteTable, active_hosts: list[str] | None
) -> UsageSet | None:
    """What route-usage pruning keeps of the request: the links and
    hosts on ``routes`` between ``active_hosts`` (None: no pruning)."""
    if active_hosts is None:
        return None
    return route_usage(req.topology, routes, active_hosts)


# --- the mutation pipeline: update discipline -------------------------------
def _priced(
    txn: ControlTransaction, admit: Callable[[ControlTransaction], None] | None
) -> ControlTransaction:
    """``validate()`` a staged transaction, then hand it to the
    caller's admission check (if any). Either may refuse with
    ``CapacityError``: the change does not fit as staged."""
    _stage("txn.validate", txn.validate)
    if admit is not None:
        admit(txn)
    return txn


def _with_discipline(
    stage: Callable[[bool], ControlTransaction],
    admit: Callable[[ControlTransaction], None] | None = None,
) -> tuple[ControlTransaction, str]:
    """The update-discipline policy. ``stage(make_first)`` returns the
    staged transaction; make-before-break is tried first and priced
    (:func:`_priced`), and when it does not fit (``CapacityError`` from
    the flow tables or from ``admit``, ``ProjectionError`` from the
    wiring) the change is staged break-before-make instead. That one
    is *unpriced* unless there is an ``admit`` to consult — its commit
    validates."""
    try:
        return _priced(stage(True), admit), MAKE_BEFORE_BREAK
    except (CapacityError, ProjectionError):
        pass
    txn = stage(False)
    if admit is not None:
        _priced(txn, admit)
    return txn, BREAK_BEFORE_MAKE


@dataclass
class Deployment:
    """A live projected topology."""

    config: TopologyConfig | None
    topology: Topology
    projection: ProjectionResult
    routes: RouteTable
    rules: RuleSet
    cookie: int
    deployment_time: float  # modeled control-plane time to install
    #: whether the deployment is lossless (PFC on): route changes must
    #: pass the Deadlock Avoidance module before install
    lossless: bool = True
    #: optical circuits minted for this deployment (hybrid SDT-OS only)
    hybrid_plan: "HybridPlan | None" = None
    #: the routing strategy whose unmodified output for ``topology``
    #: ``routes`` is; None for a table from anywhere else (a caller, a
    #: route update, a failure repair). ``config.routing`` says what
    #: was asked for, not what is installed
    routes_strategy: str | None = None
    #: logical links currently marked failed (indices into topology.links)
    failed_links: set[int] = field(default_factory=set)
    #: per-flow override rules installed (active routing); a non-zero
    #: count pins reconfiguration to the cold path, since overrides are
    #: not part of ``rules`` and a delta swap would strand them
    flow_overrides: int = 0

    @property
    def name(self) -> str:
        return self.topology.name


@dataclass
class Prepared:
    """Everything a deployment needs, computed before touching hardware.

    Produced by :meth:`SDTController.prepare` and consumed by
    :meth:`SDTController.deploy_prepared`, which releases it itself if
    it fails; :meth:`SDTController.edit` hands one to its ``admit``
    check. Callers that abandon a preparation on a hybrid rig
    must hand it to :meth:`SDTController.release_preparation` so minted
    flex circuits are returned (everything else in a preparation is
    pure state).
    """

    config: TopologyConfig | None
    topology: Topology
    routes: RouteTable
    projection: ProjectionResult
    rules: RuleSet
    cookie: int
    lossless: bool
    hybrid_plan: HybridPlan | None
    optical_time: float
    #: see :attr:`Deployment.routes_strategy`
    routes_strategy: str | None = None


@dataclass
class Mutation:
    """One mutation's ledger: filled in by its entry point while the
    stages run, published once — on success only — by the epilogue of
    :meth:`SDTController.mutation`."""

    span: Any
    #: OCS circuits when the mutation began (what a failure restores)
    ocs_before: list[tuple[int, int]] | None
    #: the three parts of the modeled time; a mutation that wraps
    #: another one books the inner mutation's whole time as its commit
    optical_mint: float = 0.0
    commit_time: float = 0.0
    optical_release: float = 0.0
    #: update discipline of a generation swap (MAKE_BEFORE_BREAK /
    #: BREAK_BEFORE_MAKE)
    strategy: str | None = None
    #: reconfigure path taken ("cold" / "incremental")
    mode: str | None = None
    #: rules in the generation this mutation installed
    rules: int | None = None
    #: control messages pushed / entries left untouched on the switches
    #: (disruption accounting, uniform across cold and incremental edits)
    pushed: int | None = None
    unchanged: int | None = None

    @property
    def modeled_time(self) -> float:
        """The one definition of a mutation's modeled time — what the
        entry point returns, the root span's ``modeled_time`` and the
        ``sdt_controller_mutation_seconds`` observation."""
        return self.optical_mint + self.commit_time + self.optical_release


@dataclass
class SDTController:
    """Drives one physical cluster; owns deployments and their resources."""

    cluster: PhysicalCluster
    seed: int = 0
    #: part→physical-switch placement policy: "fixed" keeps the pool's
    #: wiring order (part i on switch i, the paper's layout);
    #: "occupancy" re-ranks the pool most-headroom-first before every
    #: projection so coexisting deployments spread across the switches
    #: with the most remaining TCAM/ports (the multi-tenant service's
    #: default)
    placement: str = "fixed"
    #: optional optical circuit switch for §VII-A flex links; when set,
    #: deployments that outgrow the fixed wiring mint optical links
    #: instead of failing
    optical: OpticalCircuitSwitch | None = None
    deployments: list[Deployment] = field(default_factory=list)
    #: how the most recent route swap / reconfigure committed
    #: (MAKE_BEFORE_BREAK or BREAK_BEFORE_MAKE; "" before the first)
    last_commit_strategy: str = ""
    _next_cookie: int = 1
    _next_metadata: int = 1
    monitor: NetworkMonitor = field(init=False)
    #: the partition memo behind check, deploy and the incremental
    #: pipeline (DESIGN.md §5b)
    partition_cache: PartitionCache = field(init=False)

    def __post_init__(self) -> None:
        self.monitor = NetworkMonitor(
            self.cluster.control, port_rate=self.cluster.spec.port_rate
        )
        self.partition_cache = PartitionCache()

    # --- the mutation pipeline: frame (optics guard + account) ----------
    @contextmanager
    def mutation(
        self,
        name: str,
        *,
        op: str | None = None,
        consumed: Prepared | None = None,
        **attrs: Any,
    ) -> Iterator[Mutation]:
        """The frame every mutation of this controller's cluster runs in.

        Opens the root span ``controller.<name>`` and yields the
        :class:`Mutation` ledger for the entry point to fill in.

        *Optics guard*: if the body raises — the transaction has
        already rolled the flow tables back — the OCS is returned to
        its pre-mutation circuits and the ``consumed`` preparation's
        minted circuits are released; nothing below runs, so no book,
        counter or ``last_commit_strategy`` moves.

        *Account*: on success, the one epilogue — span attributes,
        ``last_commit_strategy`` and the ``sdt_controller_*`` /
        ``sdt_reconfig_*`` series (mutations are control-plane-rare,
        so these are always on), labelled ``op`` (default ``name``).
        """
        with trace.span(f"controller.{name}", **attrs) as sp:
            m = Mutation(sp, self._ocs_circuits())
            try:
                yield m
            except Exception:
                self._restore_ocs(m.ocs_before)
                if consumed is not None:
                    self._release_optics(consumed.hybrid_plan)
                raise
            reg = metrics.registry()
            if m.strategy is not None:
                self.last_commit_strategy = m.strategy
                sp.set("strategy", m.strategy)
                reg.counter("sdt_controller_commit_strategy_total").inc(
                    1, strategy=m.strategy
                )
            if m.mode is not None:
                sp.set("mode", m.mode)
                reg.counter("sdt_controller_reconfigure_mode_total").inc(
                    1, mode=m.mode
                )
            if m.rules is not None:
                sp.set("rules", m.rules)
            if m.pushed is not None:
                sp.set("rules_pushed", m.pushed)
                reg.counter("sdt_reconfig_rules_pushed_total").inc(m.pushed)
            if m.unchanged is not None:
                sp.set("rules_unchanged", m.unchanged)
                reg.counter("sdt_reconfig_rules_unchanged_total").inc(
                    m.unchanged
                )
            sp.set("modeled_time", m.modeled_time)
            reg.counter("sdt_controller_mutations_total").inc(1, op=op or name)
            reg.histogram("sdt_controller_mutation_seconds").observe(
                m.modeled_time, op=op or name
            )

    # --- the mutation pipeline: stage ------------------------------------
    def _stage_generation(
        self,
        label: str,
        new: RuleSet | None,
        deletes: Iterable[tuple[Iterable[str], int]] = (),
        *,
        make_first: bool = True,
    ) -> ControlTransaction:
        """Stage one generation change: ``new``'s rules and/or a cookie
        delete per ``(switch names, cookie)`` in ``deletes``, installs
        first (``make_first``) or deletes first."""
        with trace.span("openflow.stage"):
            txn = ControlTransaction(self.cluster.control, label=label)
            # two steps: install then delete, or the reverse
            for install in (make_first, not make_first):
                if not install:
                    for switch_names, cookie in deletes:
                        txn.stage_delete(switch_names, cookie)
                elif new is not None:
                    txn.stage_rules(new)
            return txn

    # --- resource bookkeeping ------------------------------------------
    def _free(
        self, but: Deployment | None = None, lease: Iterable | None = None
    ) -> FreeWiring:
        """The wiring a staging may bind: every cable no live deployment
        but ``but`` holds, and of the host ports only those in a
        tenant's ``lease`` (None: all of them)."""
        held: set = set()
        for d in self.deployments:
            if d is not but:
                held.update(d.projection.link_realization.values())
        return FreeWiring(self.cluster.wiring, held, lease)

    def _require_live(self, deployment: Deployment) -> None:
        if deployment not in self.deployments:
            raise ConfigurationError(f"{deployment.name!r} is not deployed")

    def _free_cookie(self, cookie: int | None) -> int:
        """The cookie a new generation takes: the controller's next one
        (``cookie`` None), or ``cookie`` once no live deployment holds
        it. Cookie-disjointness across live deployments is the
        foundation of every isolation guarantee (cookie deletes,
        per-tenant ledgers, the multi-tenant verifier), so a cookie
        reuse is refused as a hard error rather than silently merging
        two deployments' rules."""
        if cookie is None:
            return self._next_cookie
        holder = next(
            (d.name for d in self.deployments if d.cookie == cookie), None
        )
        if holder is not None:
            raise ConfigurationError(
                f"cookie {cookie} already tags live deployment {holder!r}; "
                "coexisting deployments need disjoint cookies"
            )
        return cookie

    def _projector(self, free: FreeWiring) -> LinkProjection:
        """A projection binding ``free``. Under ``"occupancy"`` its parts
        go to the switches most-headroom-first: most free flow entries
        (the binding resource, Table 2), then free host ports, then
        free self-links, then name."""
        phys_names = None
        if self.placement == "occupancy":
            switches = self.cluster.switches
            phys_names = sorted(
                switches,
                key=lambda n: (
                    -switches[n].free_entries,
                    -len(free.cables(HOST_PORTS, n)),
                    -len(free.cables(SELF_LINKS, n)),
                    n,
                ),
            )
        elif self.placement != "fixed":
            raise ConfigurationError(
                f"unknown placement policy {self.placement!r}; "
                "choose 'fixed' or 'occupancy'"
            )
        return LinkProjection(
            self.cluster,
            seed=self.seed,
            free=free,
            metadata_base=self._next_metadata,
            partition_cache=self.partition_cache,
            phys_names=phys_names,
        )

    # --- Topology Customization: checking function ----------------------
    def check(self, config: TopologyConfig | Request) -> list[str]:
        """Validate a config against the wiring, then pre-estimate its
        flow-entry demand against the switch TCAMs (§VII-C); returns
        deficiency messages (empty = deployable)."""
        req = self.request(config)
        projector = self._projector(self._free())
        partition, problems = projector.check(req.topology)
        if problems:
            return problems  # port deficits make projection moot
        projection = projector.project(req.topology, partition)
        routes = self._routes_for(req.topology, req.routing)
        rules = self._synthesize(projection, routes, cookie=0)
        for name, count in rules.per_switch_counts().items():
            sw = self.cluster.switches[name]
            if count > sw.free_entries:
                problems.append(
                    f"{name}: needs {count} flow entries, only "
                    f"{sw.free_entries} free (capacity "
                    f"{sw.flow_table_capacity}) — merge entries, split the "
                    "topology, or add switches"
                )
        return problems

    # --- the mutation pipeline: routes -------------------------------------
    def _routes_for(self, topology: Topology, strategy: str) -> RouteTable:
        """The Routing Strategy module: the table of the registry's
        strategy that the routing name ``strategy`` selects
        (:func:`~repro.routing.strategies.strategy_for`)."""
        if strategy != "auto":
            strategy = strategy_for(topology, strategy).name
        return _stage("routing.routes", _STRATEGIES[strategy], topology)

    def _synthesize(
        self,
        projection: ProjectionResult,
        routes: RouteTable,
        cookie: int,
        previous: RuleSet | None = None,
        unchanged: dict | None = None,
    ) -> RuleSet:
        return _stage(
            "rules.synthesize",
            synthesize_rules,
            projection,
            routes,
            cookie=cookie,
            previous=previous,
            unchanged=unchanged,
        )

    # --- the mutation pipeline: request ------------------------------------
    def request(
        self,
        config: TopologyConfig | Topology | Request,
        live: Topology | None = None,
    ) -> Request:
        """The :class:`Request` ``config`` makes, its topology built
        once; for an edit of the topology ``live``, with the diff from
        ``live``. A custom config whose surviving links keep their live
        order is diffed off its lists and spliced from ``live``
        (:meth:`TopologyConfig.splice`), so only what the edit changes
        is constructed; any other request is built whole and diffed. A
        bare :class:`Topology` takes the config defaults, a
        :class:`Request` is returned as it is, and a topology the
        builder refuses raises."""
        if isinstance(config, Request):
            return config
        diff = None
        if isinstance(config, Topology):
            topology, cfg, routing, lossless = config, None, "auto", True
        else:
            cfg, routing, lossless = config, config.routing, config.lossless
            if live is not None:
                try:
                    diff = _stage("topology.diff", config.diff_from, live)
                except TopologyError:
                    live = None  # a node changed kind
            if diff is None:
                topology = _stage("topology.build", config.build)
            else:
                topology = _stage("topology.build", config.splice, live, diff)
        if live is not None and diff is None:
            try:
                diff = _stage("topology.diff", diff_topologies, live, topology)
            except TopologyError:
                pass  # a node changed kind
        return Request(topology, cfg, routing, lossless, diff)

    # --- preparation (pure: no hardware mutation except optics) ----------
    def prepare(
        self,
        config: TopologyConfig | Topology | Request,
        *,
        routes: RouteTable | None = None,
        active_hosts: list[str] | None = None,
        lease: Iterable | None = None,
        cookie: int | None = None,
    ) -> Prepared:
        """Build, vet, and project a topology; synthesize its rules.

        Runs the full validation pipeline — routing strategy, Deadlock
        Avoidance (lossless), projection feasibility — without sending
        a single control message. Only the optical circuit switch is
        touched (flex circuits are minted here); callers must release
        the returned preparation (:meth:`release_preparation`) if they
        abandon it. ``lease`` confines its hosts to a tenant's leased
        host ports. ``cookie`` overrides the controller's sequential
        cookie — the multi-tenant service allocates from per-tenant
        namespaces; a cookie already owned by a live deployment is
        refused here, before any rule is synthesized against it.
        """
        cookie = self._free_cookie(cookie)
        req = self.request(config)
        routes_strategy = None
        if routes is None:
            routes = self._routes_for(req.topology, req.routing)
            routes_strategy = req.routing
        _vet(routes, req.lossless)
        return self._prepared(
            req, routes, routes_strategy,
            _usage(req, routes, active_hosts), self._free(lease=lease),
            cookie,
        )

    def _prepared(
        self,
        req: Request,
        routes: RouteTable,
        routes_strategy: str | None,
        usage: UsageSet | None,
        free: FreeWiring,
        cookie: int,
    ) -> Prepared:
        """Project a request along its vetted ``routes``, pruned to
        ``usage``, onto the wiring ``free``, and synthesize its rules —
        what each cold staging of an edit does again, since its free
        wiring differs."""
        hybrid_plan, optical_time = None, 0.0
        projector = self._projector(free)
        if self.optical is None:
            projection = _stage(
                "projection.project", projector.project, req.topology, usage=usage
            )
        else:
            projection, hybrid_plan, optical_time = _stage(
                "projection.project",
                HybridLinkProjection(projector, self.optical).project,
                req.topology,
                usage=usage,
            )
        return Prepared(
            config=req.config,
            topology=req.topology,
            routes=routes,
            projection=projection,
            rules=self._synthesize(projection, routes, cookie),
            cookie=cookie,
            lossless=req.lossless,
            hybrid_plan=hybrid_plan,
            optical_time=optical_time,
            routes_strategy=routes_strategy,
        )

    def _register(self, prep: Prepared, deployment_time: float) -> Deployment:
        """Adopt a committed preparation as a live deployment."""
        self._free_cookie(prep.cookie)
        deployment = Deployment(
            config=prep.config,
            topology=prep.topology,
            projection=prep.projection,
            routes=prep.routes,
            rules=prep.rules,
            cookie=prep.cookie,
            deployment_time=deployment_time,
            lossless=prep.lossless,
            hybrid_plan=prep.hybrid_plan,
            routes_strategy=prep.routes_strategy,
        )
        self.deployments.append(deployment)
        if prep.cookie == self._next_cookie:
            # a tenant-namespace cookie leaves the sequence untouched
            self._next_cookie += 1
        self._next_metadata += len(prep.topology.switches)
        return deployment

    def _release_optics(self, plan: HybridPlan | None) -> float:
        """Tear down a deployment's flex circuits; returns optical time."""
        if plan is None or self.optical is None:
            return 0.0
        return release_circuits(self.optical, plan)

    def _ocs_circuits(self) -> list[tuple[int, int]] | None:
        """The OCS crossbar state, for restore-on-failure."""
        return None if self.optical is None else live_circuits(self.optical)

    def _restore_ocs(self, circuits: list[tuple[int, int]] | None) -> None:
        """Reprogram the OCS back to a prior :meth:`_ocs_circuits` state
        (no-op when nothing changed)."""
        if self.optical is None or circuits is None:
            return
        if self._ocs_circuits() != circuits:
            self.optical.configure(circuits)

    def _estimated_install_time(self, rules: RuleSet) -> float:
        """Modeled time to install ``rules`` alone (parallel channels:
        per-switch batch + barrier, max across switches)."""
        times = [0.0]
        for name, count in rules.per_switch_counts().items():
            channel = self.cluster.control.channel(name)
            times.append(count * channel.flow_install_latency + channel.rtt)
        return max(times)

    # --- Topology Customization: deployment function ------------------------
    def deploy(
        self,
        config: TopologyConfig | Topology,
        *,
        routes: RouteTable | None = None,
        active_hosts: list[str] | None = None,
    ) -> Deployment:
        """Project, verify, and install a topology. Returns the live
        deployment; its modeled install time feeds Fig. 13.

        ``active_hosts`` enables route-usage pruning: only links on
        routes between those hosts receive hardware (how the paper fits
        a 4x4x4 Torus with 32 selected nodes onto 3 switches).

        The install is one transaction: a failure on any control channel
        rolls every switch back to its prior rule set (and releases any
        flex circuits minted for the deployment) before re-raising.
        """
        with self.mutation("deploy") as m:
            prep = self.prepare(
                config, routes=routes, active_hosts=active_hosts
            )
            return self._install(prep, m)

    def deploy_prepared(self, prep: Prepared) -> Deployment:
        """Install an already-:meth:`prepare`-d topology.

        Splitting preparation from installation lets a front-end (the
        multi-tenant admission controller) run every check against the
        exact rules that will be installed and still guarantee that a
        rejection touches no switch. The same transactional install as
        :meth:`deploy`. The call consumes ``prep``: a failed call —
        cookie collision or a rolled-back commit — has already released
        the preparation's flex circuits.
        """
        with self.mutation("deploy", consumed=prep) as m:
            return self._install(prep, m)

    def _install(self, prep: Prepared, m: Mutation) -> Deployment:
        m.span.set("topology", prep.topology.name)
        m.span.set("cookie", prep.cookie)
        m.rules = prep.rules.count()
        # _register re-checks, but catching a collision before the
        # commit keeps the reject zero-mutation
        self._free_cookie(prep.cookie)
        txn = self._stage_generation(
            f"deploy {prep.topology.name}", prep.rules
        )
        m.optical_mint = prep.optical_time
        m.commit_time = txn.commit()
        return self._register(prep, m.modeled_time)

    def release_preparation(self, prep: Prepared) -> float:
        """Abandon a preparation that will not be installed, returning
        any flex circuits it minted; returns the modeled optical time
        (0.0 on pure-wiring rigs, where abandonment is free)."""
        return self._release_optics(prep.hybrid_plan)

    def undeploy(self, deployment: Deployment) -> float:
        """Remove a deployment's rules; returns modeled removal time.

        Transactional: if a delete fails mid-way, every switch is
        restored and the deployment stays live.
        """
        self._require_live(deployment)
        with self.mutation("undeploy", topology=deployment.name) as m:
            m.commit_time = self._stage_generation(
                f"undeploy {deployment.name}",
                None,
                [(deployment.rules.switches(), deployment.cookie)],
            ).commit()
            self.deployments.remove(deployment)
            m.optical_release = self._release_optics(deployment.hybrid_plan)
        return m.modeled_time

    def undeploy_cookie(
        self, cookie: int, switch_names: Iterable[str]
    ) -> float:
        """Strip every entry carrying ``cookie`` from the named
        switches; returns modeled removal time.

        Teardown by namespace: used for generations recovered after a
        crash, whose :class:`Deployment` objects no longer exist
        (DESIGN.md §7) but whose rules are live on the switches. The
        delete is transactional like :meth:`undeploy`.
        """
        with self.mutation(
            "undeploy_cookie", op="undeploy", cookie=cookie
        ) as m:
            m.commit_time = self._stage_generation(
                f"undeploy cookie {cookie}", None, [(switch_names, cookie)]
            ).commit()
        return m.modeled_time

    def reconfigure(
        self,
        config: TopologyConfig | Topology,
        *,
        active_hosts: list[str] | None = None,
    ) -> tuple[Deployment, float]:
        """The one-command topology swap of Fig. 2: :meth:`edit` the one
        live deployment into ``config`` (or deploy it when nothing is
        live). Returns (deployment, total modeled reconfiguration time):
        no rewiring, no optics, just flow tables.

        With more than one deployment live there is no "the" deployment
        to edit: ``ConfigurationError``, nothing touched — name the one
        to change with :meth:`edit`.
        """
        if len(self.deployments) > 1:
            raise ConfigurationError(
                f"reconfigure edits the one live deployment, but "
                f"{len(self.deployments)} are live; edit one of them"
            )
        if self.deployments:
            return self.edit(
                self.deployments[0], config, active_hosts=active_hosts
            )
        with self.mutation("reconfigure") as m:
            deployment = self.deploy(config, active_hosts=active_hosts)
            m.commit_time = deployment.deployment_time
            m.span.set("topology", deployment.name)
        return deployment, m.modeled_time

    def edit(
        self,
        old: Deployment,
        config: TopologyConfig | Topology | Request,
        *,
        active_hosts: list[str] | None = None,
        lease: Iterable | None = None,
        cookie: int | None = None,
        admit: Callable[[ControlTransaction, Prepared], None] | None = None,
    ) -> tuple[Deployment, float]:
        """Edit one live deployment into ``config`` — the only
        reconfigure path, for one user (:meth:`reconfigure`) and for
        many (the tenant service). Returns (deployment, modeled time).

        The edit plans once: its request is built once (a
        :class:`Request` made against ``old.topology`` is taken as it
        is), and its route table is built and vetted once — repaired
        from ``old``'s when the live table is the requested strategy's
        own output (:attr:`Deployment.routes_strategy`), built whole
        otherwise. Every staging it then tries reads that plan.

        The edit is incremental when it can be (DESIGN.md §5b): only the
        rule delta is pushed and the deployment keeps its cookie. When
        it cannot, it is a cold generation swap of ``old`` alone, under
        the update-discipline policy: make-before-break projects the new
        topology alongside the live deployments, break-before-make
        projects it again on ``old``'s freed wiring and optics. Either
        way it is one transaction, and a failure leaves ``old`` live
        with every switch rolled back.

        It is cold from the start for a pruned edit (``active_hosts``
        or a pruned ``old``), with optics in play, with link failures
        marked, with per-flow overrides installed (they live outside
        ``rules``, a delta swap would strand them) or when a node
        changed kind. A taken ``cookie`` is refused before anything
        else when the edit is cold from the start, and before routing
        when its diff turns it cold.

        ``lease`` confines the new generation's hosts to a tenant's
        leased host ports; ``cookie`` is
        the cold generation's cookie (default: the controller's next).
        ``admit(txn, prep)`` is the caller's admission check: it sees
        every staged transaction once ``validate()`` has priced it,
        before the commit, and may refuse with ``CapacityError`` (this
        staging does not fit: the edit tries the next one — incremental,
        then make-before-break, then break-before-make) or with any
        other error, which abandons the edit with nothing touched.
        """
        self._require_live(old)
        with self.mutation("reconfigure") as m:
            cold = bool(
                active_hosts is not None
                or old.projection.usage is not None
                or old.hybrid_plan is not None
                or self.optical is not None
                or old.failed_links
                or old.flow_overrides
            )
            if cold:  # a taken cookie is refused first, as prepare does
                self._free_cookie(cookie)
            req = self.request(config, None if cold else old.topology)
            if not cold and req.diff is None:  # a node changed kind
                cold = True
                self._free_cookie(cookie)

            # the table, and the switches whose route entries moved when
            # only they did
            repaired = None
            if not cold and old.routes_strategy is not None:
                rule = strategy_for(req.topology, req.routing)
                if rule is strategy_for(old.topology, old.routes_strategy):
                    repaired = _stage(
                        "routing.routes", repair_routes,
                        old.routes, req.topology, req.diff, rule,
                    )
            routes, moved = repaired or (
                self._routes_for(req.topology, req.routing), None
            )
            _vet(routes, req.lossless)

            deployment = None if cold else self._reconfigure_incremental(
                old, req, routes, moved, lease, admit, m
            )
            if deployment is None:
                deployment = self._reconfigure_cold(
                    old, req, routes, _usage(req, routes, active_hosts),
                    lease, cookie, admit, m,
                )
            m.span.set("topology", deployment.name)
        return deployment, m.modeled_time

    def _reconfigure_cold(
        self,
        old: Deployment,
        req: Request,
        routes: RouteTable,
        usage: UsageSet | None,
        lease: Iterable | None,
        cookie: int | None,
        admit: Callable[[ControlTransaction, Prepared], None] | None,
        m: Mutation,
    ) -> Deployment:
        """Swap a whole generation: ``old``'s cookie delete against the
        request projected and synthesized afresh for each staging (the
        route usage it is pruned to is the same for every staging)."""
        cookie = self._free_cookie(cookie)
        prep: Prepared | None = None

        def stage(make_first: bool) -> ControlTransaction:
            nonlocal prep
            if not make_first:
                # the hardware cannot hold both generations: break
                # first. The old generation's wiring *and* flex
                # circuits become available to the new topology; the
                # optics guard restores them if the swap fails past
                # this point.
                self._restore_ocs(m.ocs_before)  # drop aborted MBB mints
                m.optical_release += self._release_optics(old.hybrid_plan)
            # make-before-break projects alongside the live deployment
            free = self._free(but=None if make_first else old, lease=lease)
            prep = self._prepared(req, routes, req.routing, usage, free, cookie)
            return self._stage_generation(
                f"reconfigure {prep.topology.name}",
                prep.rules,
                [(old.rules.switches(), old.cookie)],
                make_first=make_first,
            )

        txn, m.strategy = _with_discipline(
            stage, None if admit is None else lambda txn: admit(txn, prep)
        )
        m.optical_mint = prep.optical_time
        m.commit_time = txn.commit()
        m.mode = "cold"
        m.rules = prep.rules.count()
        m.pushed = m.rules + old.rules.count()
        self.deployments.remove(old)
        if m.strategy == MAKE_BEFORE_BREAK:
            m.optical_release += self._release_optics(old.hybrid_plan)
        return self._register(
            prep,
            prep.optical_time + self._estimated_install_time(prep.rules),
        )

    def _reconfigure_incremental(
        self,
        old: Deployment,
        req: Request,
        routes: RouteTable,
        moved: frozenset[str] | None,
        lease: Iterable | None,
        admit: Callable[[ControlTransaction, Prepared], None] | None,
        m: Mutation,
    ) -> Deployment | None:
        """Try the O(changed links) reconfiguration path (DESIGN.md §5b)
        along the request's diff from the live topology and its vetted
        ``routes``.

        Re-projects only the changed links (placement stability keeps
        every surviving sub-switch on its physical switch, ports and
        metadata tag included; every other sub-switch is carried over
        unvisited), re-synthesizes rules against the live generation
        (unchanged sub-switches get their block back), and stages only
        the FlowMod/strict-FlowDelete *delta* against live switch
        state — keeping the deployment's cookie,
        because this is an edit of the same generation, not a new one.
        Added links may claim no resource another deployment holds, nor
        a host port outside ``lease``.

        ``moved`` is the set of switches whose route entries moved when
        ``routes`` is a repair of the live table
        (:func:`~repro.routing.strategies.repair_routes`): synthesis
        then resolves only the sub-switches whose routes moved or whose
        projection changed, and every other sub-switch keeps its block
        unresolved (:func:`~repro.core.rules.unchanged_blocks`). None
        (a change of strategy, or an edit the repair cannot take)
        resolves every sub-switch.

        Returns ``None`` when the edit cannot be applied incrementally,
        and the caller runs the cold swap instead: added links that the
        free wiring cannot host without re-placing survivors, or a
        delta that does not fit (the flow tables' or ``admit``'s
        ``CapacityError``).
        """
        topology, diff = req.topology, req.diff
        partition = _stage(
            "partition.extend", extend_partition, old.projection.partition, topology
        )
        try:
            projection = _stage(
                "projection.delta",
                project_delta,
                self.cluster,
                old.projection,
                topology,
                partition,
                free=self._free(but=old, lease=lease),
                metadata_base=self._next_metadata,
                diff=diff,
            )
        except (CapacityError, ProjectionError):
            return None

        unchanged = None
        if moved is not None:
            unchanged = unchanged_blocks(
                old.projection, old.rules, projection, moved, old.cookie
            )
        prep = Prepared(
            config=req.config,
            topology=topology,
            routes=routes,
            projection=projection,
            rules=self._synthesize(
                projection, routes, old.cookie, old.rules, unchanged
            ),
            cookie=old.cookie,
            lossless=req.lossless,
            hybrid_plan=None,
            optical_time=0.0,
            routes_strategy=req.routing,
        )
        with trace.span("openflow.stage"):
            txn = ControlTransaction(
                self.cluster.control,
                label=f"reconfigure-incremental {topology.name}",
            )
            # Sub-switches whose compiled block came back from the live
            # generation unchanged are excluded from the per-rule diff
            # entirely, and only the differing rows of the others are
            # built as FlowMods.
            delta = _stage(
                "rules.split_delta", split_ruleset_delta, old.rules, prep.rules
            )
            stats = _stage(
                "openflow.stage_delta",
                txn.stage_delta,
                delta.old_mods,
                delta.new_mods,
            )
        try:
            if admit is not None:
                _priced(txn, lambda txn: admit(txn, prep))
            m.commit_time = txn.commit()
        except CapacityError:
            # commit validates before touching hardware; the delta's
            # transient peak (steady state + additions) does not fit,
            # but the cold path can still price break-before-make
            return None

        # the extended partition is now the edited topology's partition
        # of record: seed the cache so a later check/deploy of this
        # same topology hits instead of re-running the multilevel
        # partitioner from scratch
        self.partition_cache.seed(topology, partition, seed=self.seed)
        self._next_metadata += len(diff.added_switches)
        old.config = req.config
        old.topology = topology
        old.projection = projection
        old.routes = routes
        old.routes_strategy = req.routing
        old.rules = prep.rules
        old.lossless = req.lossless
        old.deployment_time = self._estimated_install_time(prep.rules)

        m.strategy = MAKE_BEFORE_BREAK
        m.mode = "incremental"
        m.span.set("changes", diff.num_changes)
        m.rules = prep.rules.count()
        m.pushed = stats.pushed
        m.unchanged = stats.unchanged + delta.shared_rules
        return old

    # --- failure handling ----------------------------------------------------
    def update_routes(self, deployment: Deployment, routes: RouteTable) -> float:
        """Swap a live deployment's routing in place (same projection,
        fresh flow tables). Returns the modeled control-plane time.

        Lossless deployments pass the Deadlock Avoidance module first —
        a deadlockable table is refused with the old routes still
        installed. The swap itself is one transaction (make-before-break
        when the flow tables can hold both route generations), so a
        control-channel failure leaves the previous rules in place.
        """
        self._require_live(deployment)
        with self.mutation("update_routes", topology=deployment.name) as m:
            _vet(routes, deployment.lossless)
            cookie = self._next_cookie
            rules = self._synthesize(deployment.projection, routes, cookie)
            deletes = [(deployment.rules.switches(), deployment.cookie)]
            txn, m.strategy = _with_discipline(
                lambda make_first: self._stage_generation(
                    f"update-routes {deployment.name}",
                    rules,
                    deletes,
                    make_first=make_first,
                )
            )
            m.commit_time = txn.commit()
            # a generation swap, counted as a cold edit counts one
            m.rules = rules.count()
            m.pushed = m.rules + deployment.rules.count()
            self._next_cookie += 1
            deployment.routes = routes
            deployment.routes_strategy = None
            deployment.rules = rules
            deployment.cookie = cookie
        return m.modeled_time

    def fail_link(self, deployment: Deployment, link_index: int) -> float:
        """Mark a logical link failed and reroute around it.

        Repair routes are up*/down* paths avoiding every failed link;
        for lossless deployments the Deadlock Avoidance module re-vets
        them before install (a deadlockable repair is refused). The
        swap is transactional, so on rejection *or* a mid-install
        failure the previous routes stay installed and ``failed_links``
        keeps its prior value. Returns the modeled repair time — the
        figure of merit for fault-tolerance experiments on SDT.
        """
        with self.mutation(
            "fail_link", topology=deployment.name, link=link_index
        ) as m:
            failed = set(deployment.failed_links) | {link_index}
            routes = _stage(
                "routing.routes", reroute_avoiding, deployment.topology, failed
            )
            m.commit_time = self.update_routes(deployment, routes)
            deployment.failed_links = failed
        return m.modeled_time

    def restore_links(self, deployment: Deployment) -> float:
        """Clear all failures and reinstall the original strategy.

        ``failed_links`` is cleared only once the reinstall commits.
        """
        with self.mutation("restore_links", topology=deployment.name) as m:
            strategy = (
                deployment.config.routing if deployment.config else "auto"
            )
            routes = self._routes_for(deployment.topology, strategy)
            m.commit_time = self.update_routes(deployment, routes)
            deployment.routes_strategy = strategy
            deployment.failed_links = set()
        return m.modeled_time

    # --- active routing support (§VI-E) -----------------------------------
    def install_flow_override(
        self,
        deployment: Deployment,
        logical_switch: str,
        *,
        src: str,
        dst: str,
        out_port_index: int,
        vc: int = 0,
    ) -> None:
        """Steer one (src, dst) flow at one logical switch — the
        controller-side half of active routing."""
        with self.mutation(
            "flow_override",
            topology=deployment.name,
            switch=logical_switch,
            src=src,
            dst=dst,
        ) as m:
            phys, mod = flow_override(
                deployment.projection,
                logical_switch,
                src=src,
                dst=dst,
                out_port_index=out_port_index,
                vc=vc,
                cookie=deployment.cookie,
            )
            txn = ControlTransaction(
                self.cluster.control, label=f"flow-override {deployment.name}"
            )
            txn.stage(phys, mod)
            m.commit_time = txn.commit()
            deployment.flow_overrides += 1

    # --- durability & recovery (DESIGN.md §7) ------------------------------
    def snapshot_state(self, sessions=None) -> dict:
        """The controller's full durable state, JSON-safe — what a
        :class:`~repro.recovery.snapshot.SnapshotManager` persists.
        ``sessions`` (optional) adds tenant-session records."""
        from repro.recovery.snapshot import controller_state

        return controller_state(self, sessions=sessions)

    def reconcile(self, *, dry_run: bool = False):
        """Audit every switch's installed rules against this
        controller's deployments and repair drift (missing rules
        re-installed, orphans strict-deleted, modified rules replaced)
        in one ordinary transaction, committed inside this controller's
        :meth:`mutation` frame; see
        :func:`repro.recovery.reconcile.reconcile`. Returns the
        :class:`~repro.recovery.reconcile.ReconcileReport`."""
        from repro.recovery.reconcile import reconcile

        return reconcile(self, dry_run=dry_run)
