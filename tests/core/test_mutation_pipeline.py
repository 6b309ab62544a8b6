"""The controller's one mutation pipeline (DESIGN.md §4b), entry point
by entry point.

Every mutation of :class:`SDTController` runs in the same frame
(``SDTController.mutation``): stage → commit → account. Three
invariants follow, checked here over the whole table of entry points,
on a pure-wiring rig and — where optics apply — on the starved hybrid
rig of ``tests/core/test_hybrid.py``:

* **I1** a control-channel failure injected mid-commit leaves flow
  tables, OCS circuits and every controller book at their pre-call
  values, and publishes nothing;
* **I2** a successful call bumps ``sdt_controller_mutations_total{op}``
  by a pinned table (nested mutations count both levels);
* **I3** one definition of modeled time: the returned value, the root
  span's ``modeled_time`` and the ``sdt_controller_mutation_seconds``
  observation are the same number.

The three copy-drift bugs this pipeline fixed by construction each get
a regression test at the bottom.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import pytest

from repro.core import SDTController, TopologyConfig, build_cluster_for
from repro.core.controller.controller import BREAK_BEFORE_MAKE
from repro.hardware import H3C_S6861, OpticalCircuitSwitch
from repro.hardware.spec import SwitchSpec
from repro.telemetry import (
    MetricsRegistry,
    Tracer,
    install_tracer,
    set_registry,
    uninstall_tracer,
)
from repro.tenancy import TenantQuota, TestbedService, build_pool_for_tenants
from repro.topology import chain, fat_tree, torus2d
from repro.topology.diff import rebuild, removable_switch_links
from repro.util.errors import (
    AdmissionError,
    ConfigurationError,
    TransactionError,
)
from repro.util.units import gbps
from tests.core.test_hybrid import starved_cluster
from tests.tenancy.conftest import run_op

FT4 = fat_tree(4)
FT4_EDITED = rebuild(FT4, drop_links={removable_switch_links(FT4)[0]})
TORUS44 = TopologyConfig("torus2d", {"x": 4, "y": 4})

#: the child spans a ``controller.*`` root may have: the pipeline's
#: stages, named as the performance ledger names them, plus nested
#: mutations
STAGE_SPANS = {
    "topology.build", "topology.diff", "routing.routes", "routing.deadlock",
    "partition.extend", "projection.project", "projection.delta",
    "rules.synthesize", "openflow.stage", "txn.validate", "txn.commit",
}


@dataclass
class Rig:
    controller: SDTController
    #: books as of :meth:`mark` — what a failed call must restore
    marked: dict | None = None

    @property
    def cluster(self):
        return self.controller.cluster

    def books(self) -> dict:
        c = self.controller
        return {
            "tables": {
                name: Counter(sw.entry_keys())
                for name, sw in self.cluster.switches.items()
            },
            "circuits": None if c.optical is None else dict(c.optical.circuits),
            "deployments": [
                (id(d), d.cookie, d.name, id(d.rules), id(d.routes),
                 id(d.projection), set(d.failed_links), d.flow_overrides)
                for d in c.deployments
            ],
            "next_cookie": c._next_cookie,
            "next_metadata": c._next_metadata,
            "last_commit_strategy": c.last_commit_strategy,
        }

    def mark(self) -> None:
        self.marked = self.books()


def pure_rig() -> Rig:
    return Rig(SDTController(build_cluster_for([FT4, torus2d(4, 4)], 2, H3C_S6861)))


def hybrid_rig() -> Rig:
    return Rig(SDTController(
        starved_cluster(), optical=OpticalCircuitSwitch(num_ports=16)
    ))


# --- the table: set-up → the call under test ---------------------------------
# Each case puts a fresh rig into its pre-call state and returns a
# zero-argument call that performs ONE entry-point call and returns its
# modeled time (None where the entry point returns none). A case that
# consumes a preparation marks the books *before* preparing: a failed
# consuming call hands the preparation's optics back too.

def deploy(rig):
    return lambda: rig.controller.deploy(FT4).deployment_time


def deploy_prepared(rig):
    rig.mark()
    prep = rig.controller.prepare(FT4)
    return lambda: rig.controller.deploy_prepared(prep).deployment_time


def edit_cold(rig):
    # the rig cannot hold both generations: a cold edit that reuses the
    # old generation's wiring (break-before-make)
    c = rig.controller
    old = c.deploy(chain(4))
    return lambda: c.edit(old, FT4)[1]


def undeploy(rig):
    dep = rig.controller.deploy(FT4)
    return lambda: rig.controller.undeploy(dep)


def undeploy_cookie(rig):
    dep = rig.controller.deploy(FT4)
    # a generation recovered after a crash: rules live, Deployment gone
    rig.controller.deployments.remove(dep)
    return lambda: rig.controller.undeploy_cookie(dep.cookie, list(dep.rules.mods))


def reconfigure_cold(rig):
    rig.controller.deploy(FT4)
    target = TORUS44 if rig.controller.optical is None else chain(6)
    return lambda: rig.controller.reconfigure(target)[1]


def reconfigure_cold_reusing_optics(rig):
    # the flex pool cannot hold two fat-trees: break-before-make, with
    # the old generation's circuits released before the new are minted
    rig.controller.deploy(FT4)
    return lambda: rig.controller.reconfigure(fat_tree(4))[1]


def reconfigure_incremental(rig):
    rig.controller.deploy(TopologyConfig.from_topology(FT4))
    return lambda: rig.controller.reconfigure(TopologyConfig.from_topology(FT4_EDITED))[1]


def reconfigure_nothing_deployed(rig):
    return lambda: rig.controller.reconfigure(FT4)[1]


def update_routes(rig):
    from repro.routing import shortest_path_routes

    dep = rig.controller.deploy(TopologyConfig("fat-tree", {"k": 4}, lossless=False))
    routes = shortest_path_routes(dep.topology)
    return lambda: rig.controller.update_routes(dep, routes)


def fail_link(rig):
    dep = rig.controller.deploy(torus2d(4, 4))
    link = dep.topology.switch_links[0].index
    return lambda: rig.controller.fail_link(dep, link)


def restore_links(rig):
    dep = rig.controller.deploy(torus2d(4, 4))
    rig.controller.fail_link(dep, dep.topology.switch_links[0].index)
    return lambda: rig.controller.restore_links(dep)


def install_flow_override(rig):
    dep = rig.controller.deploy(FT4)
    return lambda: rig.controller.install_flow_override(
        dep, dep.topology.switches[0], src="h0", dst="h5", out_port_index=0
    )


def reconcile(rig):
    dep = rig.controller.deploy(FT4)
    # drift: one intended rule missing on every switch
    for name, mods in dep.rules.mods.items():
        mod = mods[0]
        assert rig.cluster.switches[name].remove_flows(
            cookie=mod.cookie, table_id=mod.table_id,
            priority=mod.priority, match=mod.match,
        ) == 1
    return lambda: rig.controller.reconcile().modeled_time


@dataclass(frozen=True)
class Case:
    setup: Callable[[Rig], Callable[[], float | None]]
    rig: Callable[[], Rig]
    #: the ``op`` label the call's own root publishes under
    op: str
    #: I2: mutations nested in the call, which count too
    nested: tuple[str, ...] = ()
    #: root span, ``controller.<root>``, where it is not the op
    root: str = ""

    @property
    def id(self) -> str:
        return f"{self.setup.__name__}-{self.rig.__name__}"

    @property
    def ops(self) -> dict:
        """The pinned ``sdt_controller_mutations_total`` deltas."""
        return dict.fromkeys((self.op, *self.nested), 1)


CASES = [
    Case(deploy, pure_rig, "deploy"),
    Case(deploy, hybrid_rig, "deploy"),
    Case(deploy_prepared, pure_rig, "deploy"),
    Case(deploy_prepared, hybrid_rig, "deploy"),
    # an edit is a reconfigure of the deployment it names
    Case(edit_cold, pure_rig, "reconfigure"),
    Case(edit_cold, hybrid_rig, "reconfigure"),
    Case(undeploy, pure_rig, "undeploy"),
    Case(undeploy, hybrid_rig, "undeploy"),
    # undeploy_cookie counts as an undeploy
    Case(undeploy_cookie, pure_rig, "undeploy", root="undeploy_cookie"),
    Case(reconfigure_cold, pure_rig, "reconfigure"),
    Case(reconfigure_cold, hybrid_rig, "reconfigure"),
    Case(reconfigure_cold_reusing_optics, hybrid_rig, "reconfigure"),
    Case(reconfigure_incremental, pure_rig, "reconfigure"),
    # a reconfigure with nothing deployed is a deploy inside a reconfigure
    Case(reconfigure_nothing_deployed, pure_rig, "reconfigure", ("deploy",)),
    Case(reconfigure_nothing_deployed, hybrid_rig, "reconfigure", ("deploy",)),
    Case(update_routes, pure_rig, "update_routes"),
    # repairs count themselves and the route swap they wrap
    Case(fail_link, pure_rig, "fail_link", ("update_routes",)),
    Case(restore_links, pure_rig, "restore_links", ("update_routes",)),
    Case(install_flow_override, pure_rig, "flow_override"),
    Case(reconcile, pure_rig, "reconcile"),
]
OPS = ("deploy", "undeploy", "reconfigure", "update_routes",
       "fail_link", "restore_links", "flow_override", "reconcile")
#: SDTController's eleven mutation entry points; ``reconfigure`` (an
#: ``edit`` of the one live deployment) has a cold and an incremental
#: path, so the table has a set-up for each
ENTRY_POINTS = {
    "deploy", "deploy_prepared", "edit", "undeploy",
    "undeploy_cookie", "reconfigure", "update_routes", "fail_link",
    "restore_links", "install_flow_override", "reconcile",
}
cases = pytest.mark.parametrize("case", CASES, ids=[c.id for c in CASES])


def test_the_table_covers_all_eleven_entry_points():
    setups = {c.setup.__name__ for c in CASES}
    assert len(ENTRY_POINTS) == 11
    for name in ENTRY_POINTS:
        assert callable(getattr(SDTController, name))
        assert any(s == name or s.startswith(f"{name}_") for s in setups), name


@pytest.fixture()
def registry():
    reg = MetricsRegistry()
    old = set_registry(reg)
    yield reg
    set_registry(old)


def _published(reg: MetricsRegistry) -> dict:
    """Every series of the two counters a failed call must not move."""
    out = {}
    for name in (
        "sdt_controller_mutations_total",
        "sdt_controller_commit_strategy_total",
    ):
        inst = reg.get(name)
        if inst is not None:
            for labels, value in inst.series():
                out[(name, *sorted(labels.items()))] = value
    return out


# --- I1: a failed call restores everything and publishes nothing -------------

@cases
def test_mid_commit_failure_restores_every_book(case, registry):
    failures = 0
    for victim in ("phys0", "phys1"):
        rig = case.rig()
        call = case.setup(rig)
        before = rig.marked or rig.books()
        published = _published(registry)
        # the 2nd message on the victim: at least one message has been
        # applied there (and, when the victim is the second switch, a
        # whole batch on the first), so the rollback has real work
        rig.cluster.control.channel(victim).fail_after(2)
        try:
            call()
        except TransactionError:
            failures += 1
        else:
            continue  # this mutation never reached the victim's 2nd message
        assert rig.books() == before, f"{case.id}: books moved (victim {victim})"
        assert _published(registry) == published
    assert failures, f"{case.id}: no injection point hit the commit"


# --- I2 + I3: what a successful call publishes -------------------------------

@cases
def test_success_publishes_pinned_ops_and_one_modeled_time(case, registry):
    rig = case.rig()
    call = case.setup(rig)
    mutations = registry.counter("sdt_controller_mutations_total")
    before = {op: mutations.value(op=op) for op in OPS}
    seconds = registry.histogram("sdt_controller_mutation_seconds")
    seen = seconds.snapshot(op=case.op)
    tracer = install_tracer(Tracer())
    try:
        returned = call()
    finally:
        uninstall_tracer()

    # I2
    assert {
        op: mutations.value(op=op) - n for op, n in before.items()
        if mutations.value(op=op) != n
    } == case.ops

    # I3
    (root,) = [s for s in tracer.spans(f"controller.{case.root or case.op}")
               if s["parent"] is None]
    modeled = root["attrs"]["modeled_time"]
    now = seconds.snapshot(op=case.op)
    assert now.count == seen.count + 1
    if seen.count == 0:
        assert now.total == modeled  # the observation itself, bit for bit
    else:  # the set-up already observed this op (restore_links)
        assert now.total - seen.total == pytest.approx(modeled, rel=1e-9)
    if returned is not None:
        assert returned == modeled
    # and every direct child of the root is a pipeline stage or a
    # nested mutation
    children = {s["name"] for s in tracer.spans()
                if s["parent"] == root["id"]}
    assert children <= STAGE_SPANS | {"controller.deploy",
                                      "controller.update_routes"}


def test_hybrid_modeled_time_is_mint_plus_commit_plus_release(registry):
    """A cold edit whose preparation minted circuits returns optical
    mint + commit + optical release, like deploy, and publishes that
    same number."""
    rig = hybrid_rig()
    call = edit_cold(rig)
    minted = 0.031  # OCS settle time for the fat-tree's circuits
    tracer = install_tracer(Tracer())
    try:
        returned = call()
        # the release half: undeploying the fat-tree pays for its circuits
        removal = rig.controller.undeploy(rig.controller.deployments[0])
    finally:
        uninstall_tracer()
    swap_commit, undeploy_commit = (
        s["attrs"]["modeled_time"] for s in tracer.spans("txn.commit")
    )
    assert returned == minted + swap_commit  # chain(4) held no circuits
    assert returned == pytest.approx(0.08225)
    (root,) = tracer.spans("controller.reconfigure")
    assert root["attrs"]["modeled_time"] == returned
    assert root["attrs"]["strategy"] == BREAK_BEFORE_MAKE
    assert registry.histogram("sdt_controller_mutation_seconds").snapshot(
        op="reconfigure"
    ).total == returned
    assert removal > undeploy_commit
    assert not rig.controller.optical.circuits


# --- reconfigure edits the one live deployment ------------------------------

def test_reconfigure_with_two_live_deployments_refuses_untouched(registry):
    """With two deployments live, ``reconfigure`` has no one deployment
    to edit: it refuses before any stage runs."""
    rig = pure_rig()
    c = rig.controller
    first, second = c.deploy(chain(4)), c.deploy(chain(3))
    before, published = rig.books(), _published(registry)
    with pytest.raises(ConfigurationError, match="2 are live"):
        c.reconfigure(TORUS44)
    assert rig.books() == before
    assert _published(registry) == published
    assert c.deployments == [first, second]
    # edit names the one to change and leaves the other live
    edited, _ = c.edit(second, chain(5))
    assert c.deployments == [first, edited]


# --- a failed cold edit hands the new generation's optics back ---------------

def test_failed_swap_releases_the_preparations_circuits():
    """A cold edit mints the new generation's flex circuits before it
    commits (12 here, ``old`` owning none); a failed commit returns
    them, so no flex port is stranded."""
    rig = hybrid_rig()
    c, ocs = rig.controller, rig.controller.optical
    old = c.deploy(chain(4))
    assert len(ocs.circuits) == 0
    rig.cluster.control.channel("phys1").fail_after(5)
    with pytest.raises(TransactionError):
        c.edit(old, FT4)
    assert c.deployments == [old]
    assert len(ocs.circuits) == 0
    # nothing is stranded: the same edit goes through on a retry
    c.edit(old, FT4)
    assert c.last_commit_strategy == BREAK_BEFORE_MAKE
    assert len(ocs.circuits) == 12


# --- admission prices edits the way the controller commits -----------------

TIGHT = SwitchSpec(
    model="tight", num_ports=64, port_rate=gbps(10), flow_table_capacity=40
)
CHAIN5 = TopologyConfig("chain", {"num_switches": 5, "hosts_per_switch": 1})
CHAIN9 = TopologyConfig("chain", {"num_switches": 9, "hosts_per_switch": 1})
#: chain-6 under fresh node names: no node survives the edit, so its
#: delta is both whole generations and the edit is a cold swap
FRESH_CHAIN6 = TopologyConfig("custom", {
    "name": "chain-6",
    "switches": [f"t{i}" for i in range(6)],
    "hosts": [f"g{i}" for i in range(6)],
    "links": [[f"t{i}", f"t{i + 1}"] for i in range(5)]
    + [[f"g{i}", f"t{i}"] for i in range(6)],
})


@pytest.fixture()
def tight_service():
    pool = build_pool_for_tenants(
        [CHAIN9.build(), CHAIN9.build()], 2, TIGHT, spare_hosts=4
    )
    svc = TestbedService(pool)
    yield svc
    svc.shutdown()


# share 40: the tenant's own transient share already forces BBM; share
# 100: only the pool's flow tables do, and the edit falls back
@pytest.mark.parametrize("tcam_share", [40, 100])
def test_admission_admits_a_swap_that_fits_break_before_make(
    tight_service, tcam_share
):
    """Admission priced every swap make-before-break — "batch peaks at
    49 entries, capacity 40" — and rejected an edit the controller's
    own fallback commits (peak 26)."""
    svc = tight_service
    svc.open_session("t", TenantQuota(host_ports=12, tcam_share=tcam_share))
    dep = run_op(svc, "deploy", "t", config=CHAIN5)
    entries = {n: sw.num_entries for n, sw in svc.controller.cluster.switches.items()}
    assert entries == {"phys0": 23, "phys1": 15}

    new = run_op(svc, "reconfigure", "t", name=dep.name, config=FRESH_CHAIN6)

    assert svc.controller.last_commit_strategy == BREAK_BEFORE_MAKE
    assert {
        n: sw.num_entries for n, sw in svc.controller.cluster.switches.items()
    } == {"phys0": 26, "phys1": 26}
    assert svc.controller.deployments == [new]
    assert not svc.verifier.verify(svc.sessions.values()).problems


def test_admission_still_rejects_a_swap_that_fits_neither_way(tight_service):
    svc = tight_service
    svc.open_session("t", TenantQuota(host_ports=12, tcam_share=100))
    dep = run_op(svc, "deploy", "t", config=CHAIN5)
    before = {
        n: Counter(sw.entry_keys())
        for n, sw in svc.controller.cluster.switches.items()
    }
    with pytest.raises(AdmissionError, match="capacity 40"):
        run_op(svc, "reconfigure", "t", name=dep.name, config=CHAIN9)
    assert {
        n: Counter(sw.entry_keys())
        for n, sw in svc.controller.cluster.switches.items()
    } == before
    assert svc.controller.deployments == [dep]


# --- observability: native stage spans account for the mutation --------------

def _coverage(tracer: Tracer, root_name: str) -> tuple[float, set[str]]:
    (root,) = [s for s in tracer.spans(root_name) if s["parent"] is None]
    children = [s for s in tracer.spans() if s["parent"] == root["id"]]
    covered = sum(s["t1"] - s["t0"] for s in children)
    return covered / (root["t1"] - root["t0"]), {s["name"] for s in children}


def _best_coverage(run: Callable[[], Tracer], root_name: str):
    """Best of three: a scheduling hiccup between two stages lands in
    the root's self time."""
    best, names = 0.0, set()
    for _ in range(3):
        share, seen = _coverage(run(), root_name)
        best, names = max(best, share), names | seen
    return best, names


def test_stage_spans_cover_a_lossless_deploy(registry):
    def run() -> Tracer:
        rig = pure_rig()
        tracer = install_tracer(Tracer(clock=time.perf_counter))
        try:
            rig.controller.deploy(TopologyConfig("fat-tree", {"k": 4}))
        finally:
            uninstall_tracer()
        return tracer

    share, names = _best_coverage(run, "controller.deploy")
    assert names <= STAGE_SPANS
    assert {"topology.build", "routing.routes", "routing.deadlock",
            "projection.project", "rules.synthesize", "openflow.stage",
            "txn.commit"} <= names
    assert share >= 0.85


def test_stage_spans_cover_an_incremental_edit(registry):
    def run() -> Tracer:
        rig = pure_rig()
        rig.controller.deploy(TopologyConfig.from_topology(FT4))
        tracer = install_tracer(Tracer(clock=time.perf_counter))
        try:
            rig.controller.reconfigure(TopologyConfig.from_topology(FT4_EDITED))
        finally:
            uninstall_tracer()
        assert registry.counter("sdt_controller_reconfigure_mode_total").value(
            mode="incremental"
        ) >= 1
        return tracer

    share, names = _best_coverage(run, "controller.reconfigure")
    assert names <= STAGE_SPANS
    assert {"topology.diff", "partition.extend", "projection.delta",
            "openflow.stage", "txn.commit"} <= names
    assert share >= 0.8


def test_an_incremental_edit_traces_its_delta_under_openflow_stage(registry):
    """Where a delta's time goes, under the ledger's own names: the
    row split, then the staging."""
    rig = pure_rig()
    rig.controller.deploy(TopologyConfig.from_topology(FT4))
    tracer = install_tracer(Tracer())
    try:
        rig.controller.reconfigure(TopologyConfig.from_topology(FT4_EDITED))
    finally:
        uninstall_tracer()
    (stage,) = tracer.spans("openflow.stage")
    assert [
        s["name"] for s in tracer.spans() if s["parent"] == stage["id"]
    ] == ["rules.split_delta", "openflow.stage_delta"]


# --- one request per operation ------------------------------------------------

def _links_built(reg: MetricsRegistry) -> float:
    counter = reg.get("sdt_topology_links_built_total")
    return 0.0 if counter is None else counter.value()


def test_a_cold_edit_builds_routes_and_vets_its_topology_once(registry):
    """A fat-tree k=4 → 4×4 torus edit tries the incremental path, then
    make-before-break, then commits break-before-make: the torus is
    built, routed and vetted once for all three."""
    rig = pure_rig()
    rig.controller.deploy(TopologyConfig("fat-tree", {"k": 4}))
    torus_links = len(TORUS44.build().links)
    before = _links_built(registry)
    tracer = install_tracer(Tracer())
    try:
        rig.controller.reconfigure(TORUS44)
    finally:
        uninstall_tracer()
    assert rig.controller.last_commit_strategy == BREAK_BEFORE_MAKE
    assert _links_built(registry) - before == torus_links == 48
    (root,) = tracer.spans("controller.reconfigure")
    stages = Counter(
        s["name"] for s in tracer.spans() if s["parent"] == root["id"]
    )
    assert stages["topology.build"] == 1
    assert stages["routing.routes"] == 1
    assert stages["routing.deadlock"] == 1


@pytest.fixture()
def quota_service():
    pool = build_pool_for_tenants(
        [CHAIN9.build(), CHAIN9.build()], 2, TIGHT, spare_hosts=4
    )
    svc = TestbedService(pool)
    svc.open_session("t", TenantQuota(host_ports=4, tcam_share=100))
    yield svc
    svc.shutdown()


def test_an_over_quota_tenant_request_builds_once_and_prepares_nothing(
    quota_service, registry
):
    """The host-port quota is read off the requested topology before
    any routing, projection or synthesis: an over-quota deploy or edit
    builds its topology once and is refused with the quota alone."""
    svc = quota_service
    deployment = run_op(svc, "deploy", "t", config=TopologyConfig(
        "chain", {"num_switches": 3, "hosts_per_switch": 1}
    ))
    chain5_links = len(CHAIN5.build().links)
    for kind, kwargs, problems in (
        ("deploy", {}, ["needs 5 host ports, 3 of the 4-port quota already bound"]),
        ("reconfigure", {"name": deployment.name},
         ["needs 5 host ports, 0 of the 4-port quota already bound"]),
    ):
        before = _links_built(registry)
        tracer = install_tracer(Tracer())
        try:
            with pytest.raises(AdmissionError) as refused:
                run_op(svc, kind, "t", config=CHAIN5, **kwargs)
        finally:
            uninstall_tracer()
        assert refused.value.problems == problems
        assert _links_built(registry) - before == chain5_links
        names = {s["name"] for s in tracer.spans()}
        assert not names & {
            "routing.routes", "projection.project", "projection.delta",
            "rules.synthesize",
        }, kind
