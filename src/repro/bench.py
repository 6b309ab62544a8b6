"""``repro bench``: deterministic correctness gates, one per suite.

Each suite drives one subsystem end to end — incremental reconfigure,
cold-deploy scaling, crash recovery, the multi-tenant scenario driver,
service churn, the topology-engineering loop, the campaign sweep — and
writes a JSON report (``BENCH_<suite>.json``). ``--baseline`` gates
that report against a committed ``benchmarks/baseline_<suite>.json``:
every gated field is a *count* or a *modeled* quantity, so the
comparison is exact and a mismatch is a behaviour change, never noise.

:data:`SUITES` is the one place that knows which fields those are. A
row names the suite's run function, the report key holding its
per-case records and the field naming a case, and for every reported
field one rule: :data:`EQ` (must equal the baseline's value),
:data:`INFO` (reported, never read by the gate), or a literal the
field must hold whatever the baseline says. :func:`compare` and
:func:`render` are driven by that table and nothing else.

Wall-clock fields are one timed pass and are informational only:
this module claims no speed. Speed is judged by the performance
ledger (``BENCHMARK.json`` + ``benchmarks/perf/``).
"""

from __future__ import annotations

import json
import sys
import time
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Any, Callable

from repro.core import Deployment, SDTController, TopologyConfig, build_cluster_for
from repro.core.projection import inter_switch_link_demand
from repro.hardware import EVAL_256x10G, SCALE_2048x10G, SwitchSpec
from repro.telemetry import metrics
from repro.topology import dragonfly, fat_tree, torus2d
from repro.topology.diff import rebuild, removable_switch_links
from repro.topology.graph import Topology
from repro.util import format_table

#: bumped whenever a report's shape changes; :func:`compare` refuses a
#: baseline written under another version
SCHEMA_VERSION = 2


def _counter(name: str, **labels: str) -> float:
    inst = metrics.registry().get(name)
    return inst.value(**labels) if inst is not None else 0.0


def _placement(controller: SDTController, deployment: Deployment) -> dict:
    """Where a cold deploy put things, as exact counts: logical switch
    links cut between physical switches (the performance ledger's
    ``partition.cut_links``) and each physical switch's installed
    entries. Any drift in the partition moves one of them."""
    demand = inter_switch_link_demand(
        deployment.topology, deployment.projection.partition
    )
    cluster = controller.cluster
    return {
        "cut_links": sum(demand.values()),
        "installed_entries": [
            cluster.switches[n].num_entries for n in cluster.switch_names
        ],
    }


# ---------------------------------------------------------------------------
# reconfig suite: cold deploy, then a 1-link incremental edit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """One reconfig case: a base topology and a rig to project it on."""

    name: str
    build: Callable[[], Topology]
    num_switches: int
    #: included in ``--quick`` (CI) runs
    quick: bool


SCENARIOS: tuple[Scenario, ...] = (
    Scenario("fattree-k4", lambda: fat_tree(4), 2, quick=True),
    Scenario("torus-6x6", lambda: torus2d(6, 6), 3, quick=True),
    Scenario("fattree-k8", lambda: fat_tree(8), 4, quick=True),
    Scenario("dragonfly-a4g9h2", lambda: dragonfly(4, 9, 2), 4, quick=False),
    Scenario("torus-10x10", lambda: torus2d(10, 10), 5, quick=False),
)

#: the registry counters a reconfig scenario reads, as (name, labels)
_RECONFIG_COUNTERS: dict[str, tuple[str, dict[str, str]]] = {
    "synthesized": ("sdt_rules_synthesized_total", {}),
    "pushed": ("sdt_reconfig_rules_pushed_total", {}),
    "unchanged": ("sdt_reconfig_rules_unchanged_total", {}),
    "cache_hits": ("sdt_rules_cache_total", {"result": "hit"}),
    "cache_misses": ("sdt_rules_cache_total", {"result": "miss"}),
    "incremental": (
        "sdt_controller_reconfigure_mode_total", {"mode": "incremental"}
    ),
    "partition_hits": ("sdt_partition_cache_total", {"result": "hit"}),
    "partition_misses": ("sdt_partition_cache_total", {"result": "miss"}),
    "links_built": ("sdt_topology_links_built_total", {}),
    "links_projected": ("sdt_projection_links_bound_total", {}),
}


def run_scenario(scenario: Scenario) -> dict:
    """One reconfig scenario on a fresh rig: a cold deploy (empty
    caches), a 1-link incremental edit, and a warm re-check."""
    base = scenario.build()
    edit_key = removable_switch_links(base)[0]
    edited_cfg = TopologyConfig.from_topology(
        rebuild(base, drop_links={edit_key})
    )
    controller = SDTController(
        build_cluster_for([base], scenario.num_switches, EVAL_256x10G)
    )

    def snap() -> dict[str, float]:
        return {
            key: _counter(name, **labels)
            for key, (name, labels) in _RECONFIG_COUNTERS.items()
        }

    def delta(after: dict[str, float], before: dict[str, float]) -> dict:
        return {key: int(after[key] - before[key]) for key in after}

    before_deploy = snap()
    t0 = time.perf_counter()
    deployment = controller.deploy(TopologyConfig.from_topology(base))
    cold_s = time.perf_counter() - t0
    # counted now: reconfigure edits this deployment in place
    rules_installed_cold = deployment.rules.count()
    placement = _placement(controller, deployment)
    before_reconf = snap()

    t0 = time.perf_counter()
    _, modeled = controller.reconfigure(edited_cfg)
    inc_s = time.perf_counter() - t0
    after = snap()

    # warm re-check of the now-live topology: the incremental path
    # seeds the partition cache with the extended partition, so this
    # must be served from the cache (the baseline pins the hit count)
    t0 = time.perf_counter()
    controller.check(edited_cfg)
    warm_s = time.perf_counter() - t0

    deploy_d = delta(before_reconf, before_deploy)
    reconf_d = delta(after, before_reconf)
    warm_d = delta(snap(), after)
    lookups = reconf_d["cache_hits"] + reconf_d["cache_misses"]
    return {
        "scenario": scenario.name,
        "logical_switches": len(base.switches),
        "logical_hosts": len(base.hosts),
        "logical_links": len(base.links),
        "phys_switches": scenario.num_switches,
        "edit": {"removed_links": [list(edit_key)], "added_links": []},
        "mode": "incremental" if reconf_d["incremental"] else "cold",
        "rules_installed_cold": rules_installed_cold,
        **placement,
        "rules_synthesized_cold": deploy_d["synthesized"],
        "rules_synthesized_incremental": reconf_d["synthesized"],
        "rules_pushed": reconf_d["pushed"],
        "rules_unchanged": reconf_d["unchanged"],
        "rule_cache_hit_rate": (
            reconf_d["cache_hits"] / lookups if lookups else 0.0
        ),
        "modeled_reconfigure_s": modeled,
        "partition_cache_hits_warm": warm_d["partition_hits"],
        "partition_cache_misses_warm": warm_d["partition_misses"],
        # what the edit walked: links constructed into its topology,
        # and links its projection allocated or bound again
        "links_built_incremental": reconf_d["links_built"],
        "links_projected_incremental": reconf_d["links_projected"],
        "cold_deploy_s": cold_s,
        "incremental_reconfigure_s": inc_s,
        "warm_check_s": warm_s,
    }


def run_reconfig_suite(quick: bool) -> dict:
    """The paper's headline operation (Fig. 2, Table II; DESIGN.md
    §5b): a small logical edit costs O(changed links) — topology diff
    and splice, partition extension, delta projection, reused blocks,
    a FlowMod/strict-delete delta push — not a redeploy."""
    return {
        "scenarios": [
            run_scenario(s) for s in SCENARIOS if s.quick or not quick
        ],
    }


# ---------------------------------------------------------------------------
# scale suite: cold deploy over fat-tree k
# ---------------------------------------------------------------------------

#: scale-curve points: fat-tree k, physical switch count, and the rig
#: spec. k=16 (320 switches, 1024 hosts, ~340k rules) needs the
#: synthetic 1024-port chassis; it is excluded from ``--quick`` runs.
SCALE_POINTS: tuple[tuple[int, int, SwitchSpec, bool], ...] = (
    (4, 2, EVAL_256x10G, True),
    (8, 4, EVAL_256x10G, True),
    (16, 8, SCALE_2048x10G, False),
)


def run_scale_suite(quick: bool) -> dict:
    """Cold deploy over fat-tree k (the data-plane fast path end to
    end: partition, projection, routing, columnar rule synthesis,
    block install), each point on a fresh controller."""
    points = []
    for k, num_switches, spec, in_quick in SCALE_POINTS:
        if quick and not in_quick:
            continue
        topo = fat_tree(k)
        controller = SDTController(
            build_cluster_for([topo], num_switches, spec)
        )
        t0 = time.perf_counter()
        deployment = controller.deploy(TopologyConfig.from_topology(topo))
        cold_s = time.perf_counter() - t0
        rules_installed = deployment.rules.count()
        points.append({
            "k": k,
            "logical_switches": len(topo.switches),
            "logical_hosts": len(topo.hosts),
            "logical_links": len(topo.links),
            "phys_switches": num_switches,
            "spec": spec.model,
            "rules_installed": rules_installed,
            **_placement(controller, deployment),
            "cold_deploy_s": cold_s,
            "rules_per_s": rules_installed / cold_s if cold_s > 0 else 0.0,
        })
    return {"points": points}


# ---------------------------------------------------------------------------
# multitenant suite: the scenario driver on a fixed four-tenant scenario
# ---------------------------------------------------------------------------

#: three tenants sharing one pool, plus one deliberately over-quota
#: tenant whose rejection is part of what the gate pins down
_MT_TENANTS: tuple[tuple[str, int, int, str, dict], ...] = (
    # (tenant, host_ports, tcam_share, kind, params)
    ("hpc-lab", 24, 2500, "fat-tree", {"k": 4}),
    ("torus-team", 12, 2000, "torus2d",
     {"x": 3, "y": 3, "hosts_per_switch": 1}),
    # the 6-chain partitions unevenly (3 hosts on one switch), so the
    # lease must cover 3 per switch under round-robin allocation
    ("chain-crew", 9, 1500, "chain",
     {"num_switches": 6, "hosts_per_switch": 1}),
    # 4 leased ports cannot host fat-tree k=4's 16 hosts: rejected
    ("greedy", 4, 2000, "fat-tree", {"k": 4}),
)


def run_multitenant_suite(quick: bool) -> dict:
    """The multi-tenant serve path through ``repro serve``'s own
    driver (:func:`repro.tenancy.serve_scenario` against a
    :class:`~repro.service.app.ControlPlaneService`): session admission,
    scheduling, preparation, transactional install, then the
    post-commit isolation verification. One profile — ``quick``
    selects nothing."""
    import asyncio

    from repro.service.app import ControlPlaneService
    from repro.tenancy import TenantQuota, TenantSpec, serve_scenario
    from repro.tenancy.scenario import Scenario as TenantScenario

    scenario = TenantScenario(
        switches=3,
        spec=EVAL_256x10G,
        spare_hosts=4,
        tenants=[
            TenantSpec(
                tenant,
                TenantQuota(host_ports=ports, tcam_share=share),
                TopologyConfig(kind, dict(params)),
            )
            for tenant, ports, share, kind, params in _MT_TENANTS
        ],
    )

    async def serve() -> tuple[ControlPlaneService, dict]:
        service = ControlPlaneService(scenario.pool())
        await service.start()
        try:
            return service, await serve_scenario(service, scenario)
        finally:
            await service.stop()

    t0 = time.perf_counter()
    service, report = asyncio.run(serve())
    serve_s = time.perf_counter() - t0
    isolation = service.testbed.verifier.verify(
        [s for s in service.testbed.sessions.values() if s.state == "active"],
        strict=False,
    )
    sessions = report["status"]["tenants"]
    tenants = [
        {
            "tenant": tenant,
            "rules_installed": record["rules_installed"],
            "host_ports_used": sessions[tenant]["host_ports_used"],
        }
        for tenant, record in report["tenants"].items()
    ]
    return {
        "tenants": tenants,
        "admitted": sorted(t["tenant"] for t in tenants),
        "rejected": sorted(r["tenant"] for r in report["rejected"]),
        "isolation_ok": isolation.ok,
        "isolation_problems": isolation.problems,
        "total_rules_installed": sum(t["rules_installed"] for t in tenants),
        "serve_s": serve_s,
    }


# ---------------------------------------------------------------------------
# recovery suite: snapshot + journal replay onto a fresh cluster
# ---------------------------------------------------------------------------

#: recovery suite points: committed mutations after the deploy, and
#: whether the point is in ``--quick`` runs
RECOVERY_POINTS: tuple[tuple[int, bool], ...] = (
    (2, True),
    (8, True),
    (32, False),
)

#: snapshot cadence for the recovery suite (committed transactions)
RECOVERY_SNAPSHOT_EVERY = 4


def run_recovery_suite(quick: bool) -> dict:
    """Crash recovery over a growing journal.

    Each point deploys fat-tree k=4 with a commit journal installed,
    applies N link fail/restore mutations (each one a committed
    transaction), snapshotting every :data:`RECOVERY_SNAPSHOT_EVERY`
    commits — then recovers cold (newest snapshot + journal replay,
    materialized onto a fresh cluster) and checks the recovered switch
    state is bit-identical to what the uninterrupted run installed.
    """
    import tempfile

    from repro.recovery import (
        SnapshotManager,
        apply_recovery,
        install_journal,
        load_recovery,
        uninstall_journal,
    )

    def installed(cluster) -> dict[str, list]:
        return {
            name: sorted(sw.installed_rules())
            for name, sw in cluster.switches.items()
        }

    topo = fat_tree(4)
    points: list[dict] = []
    for ops, in_quick in RECOVERY_POINTS:
        if quick and not in_quick:
            continue
        with tempfile.TemporaryDirectory() as tmp:
            state_dir = Path(tmp) / "state"
            manager = SnapshotManager(
                state_dir, every=RECOVERY_SNAPSHOT_EVERY
            )
            journal = manager.journal()
            cluster = build_cluster_for([topo], 2, EVAL_256x10G)
            controller = SDTController(cluster)
            install_journal(journal)
            try:
                deployment = controller.deploy(
                    TopologyConfig.from_topology(topo)
                )
                links = deployment.topology.switch_links
                for i in range(ops):
                    if i % 2:
                        controller.restore_links(deployment)
                    else:
                        controller.fail_link(
                            deployment, links[i % len(links)].index
                        )
                    manager.maybe_write(controller, journal)
            finally:
                uninstall_journal()

            fresh = build_cluster_for([topo], 2, EVAL_256x10G)
            t0 = time.perf_counter()
            result = load_recovery(state_dir)
            apply_recovery(result, fresh)
            recover_s = time.perf_counter() - t0
            points.append({
                "ops": ops,
                "journal_records": result.journal_records,
                "snapshot_lsn": result.snapshot_lsn,
                "replay_window": result.journal_records
                - (result.snapshot_lsn + 1),
                "replayed": result.replayed,
                "skipped": result.skipped,
                "entries": result.entries,
                "recover_s": recover_s,
                "bit_identical": installed(fresh) == installed(cluster),
            })
    return {"snapshot_every": RECOVERY_SNAPSHOT_EVERY, "points": points}


# ---------------------------------------------------------------------------
# churn suite: tenant lifecycles against the async control-plane service
# ---------------------------------------------------------------------------

#: churn-suite shape: live tenant slots per wave, and total sessions
#: for the two profiles. 1000+ sessions is the acceptance floor for the
#: full run (ISSUE 8); the quick profile keeps CI under a minute, and
#: the full run includes it so one committed baseline gates both.
CHURN_SLOTS = 8
CHURN_SESSIONS_FULL = 1024
CHURN_SESSIONS_QUICK = 160
#: storm shape: tenants and total submissions for the backpressure +
#: admission-reject storm phase
CHURN_STORM_TENANTS = 4
CHURN_STORM_FACTOR = 2  # submissions = max_pending * factor
CHURN_MAX_PENDING = 32
CHURN_ROOT_SEED = 20260808


def _percentile(samples: list[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[idx]


def _latency_record(samples: list[float]) -> dict:
    return {
        "samples": len(samples),
        "p50_s": _percentile(samples, 0.50),
        "p99_s": _percentile(samples, 0.99),
        "max_s": max(samples) if samples else 0.0,
    }


def _churn_profile(sessions_total: int) -> dict:
    """One churn profile on a fresh pool and service, in two phases:

    * **churn** — ``sessions_total`` tenant sessions across
      :data:`CHURN_SLOTS` concurrent slots; each session is admit →
      deploy → (seeded coin) reconfigure → evict, with client-observed
      admission and commit latencies sampled on every operation;
    * **storm** — a synchronous submission burst of ``max_pending x
      CHURN_STORM_FACTOR`` deploys, each under its own deployment
      name: exactly ``max_pending`` are admitted to the queue, the
      rest are backpressure-rejected with zero mutation; of the
      admitted ops, the 8-port lease holds two chain-3s per storm
      tenant, so the quota refuses the rest — the admission-reject
      count is deterministic too, and any *other* error is a bug.
    """
    import asyncio
    import random

    from repro.service.app import ControlPlaneService
    from repro.service.asyncsched import BackpressureError
    from repro.tenancy import TenantQuota, build_pool_for_tenants
    from repro.util.errors import AdmissionError

    chain3 = TopologyConfig(
        "chain", {"num_switches": 3, "hosts_per_switch": 1}
    )
    chain4 = TopologyConfig(
        "chain", {"num_switches": 4, "hosts_per_switch": 1}
    )
    # size for both shapes per slot at once: make-before-break swaps
    # transiently hold the old chain-3 and the new chain-4 together
    planned = [chain3.build() for _ in range(CHURN_SLOTS)]
    planned += [chain4.build() for _ in range(CHURN_SLOTS)]
    pool = build_pool_for_tenants(
        planned,
        3,
        EVAL_256x10G,
        spare_hosts=40,
    )
    # host_ports covers chain-3 + chain-4 held together: a
    # make-before-break swap counts both against the lease, and a
    # quota reject there would make the lifecycle outcome depend on
    # the (interleaving-sensitive) swap strategy choice
    quota = TenantQuota(host_ports=8, tcam_share=500)

    admission_lat: list[float] = []
    commit_lat: list[float] = []
    evict_lat: list[float] = []
    counts = {
        "sessions_admitted": 0,
        "deploys_ok": 0,
        "reconfigures_ok": 0,
        "evictions": 0,
        "errors": 0,
    }

    async def lifecycle(service: ControlPlaneService, session_no: int,
                        slot: int) -> None:
        rng = random.Random(CHURN_ROOT_SEED + session_no)
        tenant = f"t{slot}"
        try:
            t0 = time.perf_counter()
            await service.open_session(tenant, quota)
            admission_lat.append(time.perf_counter() - t0)
            counts["sessions_admitted"] += 1

            t0 = time.perf_counter()
            await service.submit("deploy", tenant, config=chain3)
            commit_lat.append(time.perf_counter() - t0)
            counts["deploys_ok"] += 1

            if rng.random() < 0.5:
                t0 = time.perf_counter()
                await service.submit(
                    "reconfigure", tenant, name="chain-3", config=chain4
                )
                commit_lat.append(time.perf_counter() - t0)
                counts["reconfigures_ok"] += 1

            t0 = time.perf_counter()
            await service.submit("evict", tenant)
            evict_lat.append(time.perf_counter() - t0)
            counts["evictions"] += 1
        except (AdmissionError, BackpressureError):
            counts["errors"] += 1
            # the slot must be free for the next wave regardless
            session = service.testbed.sessions.get(tenant)
            if session is not None and session.state == "active":
                await service.submit("evict", tenant)
                counts["evictions"] += 1

    async def storm(service: ControlPlaneService) -> dict:
        for i in range(CHURN_STORM_TENANTS):
            await service.open_session(f"s{i}", quota)
        submitted = CHURN_MAX_PENDING * CHURN_STORM_FACTOR
        storm_topo = chain3.build()
        futures = []
        bp_rejected = 0
        # a tight synchronous submission loop: nothing yields, and no
        # operation body starts before the loop turn ends, so no
        # completion can interleave — exactly max_pending ops are
        # admitted before the bound trips, deterministically
        for j in range(submitted):
            op = service.testbed.make_operation(
                "deploy",
                f"s{j % CHURN_STORM_TENANTS}",
                config=TopologyConfig.from_topology(
                    storm_topo, name=f"storm-{j}"
                ),
            )
            try:
                futures.append(service.scheduler.submit(op))
            except BackpressureError:
                bp_rejected += 1
        outcomes = await asyncio.gather(*futures, return_exceptions=True)
        ok = sum(1 for o in outcomes if not isinstance(o, BaseException))
        admission_rejected = sum(
            1 for o in outcomes if isinstance(o, AdmissionError)
        )
        for i in range(CHURN_STORM_TENANTS):
            await service.submit("evict", f"s{i}")
        return {
            "submitted": submitted,
            "accepted": len(futures),
            "backpressure_rejected": bp_rejected,
            "deploys_ok": ok,
            "admission_rejected": admission_rejected,
            "other_errors": len(outcomes) - ok - admission_rejected,
        }

    async def drive() -> tuple[float, dict]:
        service = ControlPlaneService(pool, max_pending=CHURN_MAX_PENDING)
        await service.start()
        try:
            t0 = time.perf_counter()
            for first in range(0, sessions_total, CHURN_SLOTS):
                wave = range(first, min(first + CHURN_SLOTS, sessions_total))
                await asyncio.gather(*(
                    lifecycle(service, session_no, session_no - first)
                    for session_no in wave
                ))
            churn_wall = time.perf_counter() - t0
            return churn_wall, await storm(service)
        finally:
            await service.stop()

    indexed = "tenant_isolation_projections_indexed_total"
    before = _counter(indexed)
    wall, storm_record = asyncio.run(drive())
    return {
        "sessions_target": sessions_total,
        **counts,
        "storm": storm_record,
        "final_entries": sum(sw.num_entries for sw in pool.switches.values()),
        # projections the isolation verifier indexed: each committed
        # one once, however many commits it stays live across
        "projections_indexed": int(_counter(indexed) - before),
        "churn_wall_s": wall,
        "sessions_per_s": sessions_total / wall if wall > 0 else 0.0,
        "latency": {
            "admission": _latency_record(admission_lat),
            "commit": _latency_record(commit_lat),
            "evict": _latency_record(evict_lat),
        },
    }


def run_churn_suite(quick: bool) -> dict:
    """Fleet churn against the in-process :class:`~repro.service.app.
    ControlPlaneService` (no HTTP: the suite exercises the service,
    not the socket), one :func:`_churn_profile` per session count."""
    sizes = [CHURN_SESSIONS_QUICK]
    if not quick:
        sizes.append(CHURN_SESSIONS_FULL)
    return {
        "slots": CHURN_SLOTS,
        "max_pending": CHURN_MAX_PENDING,
        "profiles": [_churn_profile(n) for n in sizes],
    }


# ---------------------------------------------------------------------------
# engineer suite: the monitor → optimize → reconfigure loop vs. a static ring
# ---------------------------------------------------------------------------

#: engineer-suite shape: ring size, hot pairs per phase, and loop knobs
ENGINEER_RING = 8
ENGINEER_PHASES: tuple[tuple[str, tuple[tuple[str, str], ...]], ...] = (
    ("skewed", (("h0", "h4"), ("h1", "h5"), ("h2", "h6"))),
    ("shifted", (("h3", "h7"), ("h2", "h5"), ("h1", "h6"))),
)
ENGINEER_BYTES = 4 * 1024 * 1024
ENGINEER_MAX_STEPS = 3  # engineering rounds per phase
ENGINEER_MAX_MOVES = 4  # a-priori disruption cap per step
ENGINEER_RULES_CAP = 80  # measured disruption cap per step
ENGINEER_MIN_GAIN = 0.03
ENGINEER_MAX_DEGREE = 4  # per-switch optical-port budget


def _engineer_topology(
    name: str, n: int, switch_links: Iterable[tuple[int, int]]
) -> Topology:
    """``n`` switches joined by ``switch_links``, one host on each."""
    topo = Topology(name)
    for i in range(n):
        topo.add_switch(f"s{i}")
    for i, j in switch_links:
        topo.connect(f"s{i}", f"s{j}")
    for i in range(n):
        topo.add_host(f"h{i}")
        topo.connect(f"h{i}", f"s{i}")
    return topo


def run_engineer_suite(quick: bool) -> dict:
    """Closed-loop topology engineering vs. a static topology.

    Two rigs deploy the same 8-switch ring. Each phase replays a
    skewed workload (three concurrent RoCE transfers between distant
    hosts) on both; the *engineered* rig then runs the
    monitor→optimize→reconfigure loop (DESIGN.md §9) and replays the
    workload again, while the *static* rig keeps the ring. The second
    phase shifts the hot pairs, so the loop must re-engineer a
    topology it already bent toward the first phase's demand.

    Reported per phase: application completion time (netsim modeled
    seconds, deterministic) on both rigs and per-step disruption —
    moves, rules actually pushed (measured via
    ``sdt_reconfig_rules_pushed_total``), reconfigure mode, and commit
    strategy. Every applied step must take the incremental
    make-before-break path: that is the "zero admission-violating
    transients" acceptance check, since MBB validates both generations
    fit before any switch is touched.

    One profile — ``quick`` selects nothing: the workload is
    modeled-time, fully deterministic, and already CI-fast.
    """
    from repro.engineering import (
        EngineerParams,
        PortBudget,
        TopologyEngineer,
    )
    from repro.netsim import RoceTransport, build_sdt_network

    n = ENGINEER_RING
    topo = _engineer_topology(
        f"ring{n}", n, [(i, (i + 1) % n) for i in range(n)]
    )
    # planning envelope for the rig: the complete switch graph, so the
    # physical wiring can realize any topology the search may propose
    headroom = _engineer_topology(
        f"ring{n}-headroom", n, combinations(range(n), 2)
    )
    params = EngineerParams(
        window=0.0,  # demand = the newest poll interval only
        max_moves=ENGINEER_MAX_MOVES,
        min_gain=ENGINEER_MIN_GAIN,
        max_rules_pushed=ENGINEER_RULES_CAP,
        cooldown_steps=0,  # phases are explicit observation rounds
    )
    budget = PortBudget(
        max_degree=ENGINEER_MAX_DEGREE,
        max_switch_links=2 * ENGINEER_RING,
    )

    def rig() -> tuple[SDTController, object]:
        cluster = build_cluster_for([topo, headroom], 3, EVAL_256x10G)
        controller = SDTController(cluster)
        deployment = controller.deploy(TopologyConfig.from_topology(topo))
        return controller, deployment

    static_ctrl, static_dep = rig()
    eng_ctrl, eng_dep = rig()
    engineer = TopologyEngineer(eng_ctrl, eng_dep, budget, params)

    clocks = {"static": 0.0, "engineered": 0.0}

    def drive(controller, deployment, pairs, key: str) -> float:
        """Replay one phase's transfers; returns the modeled ACT
        (when the last transfer completes). Polls the monitor before
        and after so the run becomes the newest utilization interval."""
        controller.monitor.poll(clocks[key], deployment.projection)
        net = build_sdt_network(controller.cluster, deployment)
        hm = deployment.projection.host_map
        for src, dst in pairs:
            RoceTransport(net, hm[dst])
            RoceTransport(net, hm[src]).send(hm[dst], ENGINEER_BYTES)
        act = net.sim.run()
        clocks[key] += max(act, 1e-9)
        controller.monitor.poll(clocks[key], deployment.projection)
        return act

    def incremental() -> float:
        return _counter(
            "sdt_controller_reconfigure_mode_total", mode="incremental"
        )

    def mbb() -> float:
        return _counter(
            "sdt_controller_commit_strategy_total",
            strategy="make-before-break",
        )

    phases: list[dict] = []
    for phase_name, pairs in ENGINEER_PHASES:
        act_static = drive(static_ctrl, static_dep, pairs, "static")
        act_eng = drive(eng_ctrl, engineer.deployment, pairs, "engineered")
        steps: list[dict] = []
        for _ in range(ENGINEER_MAX_STEPS):
            incremental_before, mbb_before = incremental(), mbb()
            step = engineer.step()
            record = step.summary()
            record["incremental"] = incremental() > incremental_before
            record["make_before_break"] = mbb() > mbb_before
            steps.append(record)
            if not step.applied:
                break
            act_eng = drive(
                eng_ctrl, engineer.deployment, pairs, "engineered"
            )
        applied = [s for s in steps if s["applied"]]
        phases.append({
            "phase": phase_name,
            "pairs": [list(p) for p in pairs],
            "act_static_s": act_static,
            "act_engineered_s": act_eng,
            "improvement": act_static / act_eng if act_eng > 0 else 0.0,
            "steps": steps,
            "steps_applied": len(applied),
            "moves_total": sum(len(s["moves"]) for s in applied),
            "max_rules_pushed": max(
                (s["rules_pushed"] for s in applied), default=0
            ),
        })

    applied_steps = [s for p in phases for s in p["steps"] if s["applied"]]
    return {
        "ring": ENGINEER_RING,
        "rules_cap": ENGINEER_RULES_CAP,
        "max_moves": ENGINEER_MAX_MOVES,
        "phases": phases,
        "steps_applied": len(applied_steps),
        "moves_total": sum(len(s["moves"]) for s in applied_steps),
        "max_rules_pushed": max(
            (s["rules_pushed"] for s in applied_steps), default=0
        ),
        "phases_worse_than_static": sum(
            1 for p in phases if p["act_engineered_s"] > p["act_static_s"]
        ),
        "cap_violations": sum(
            1 for s in applied_steps if s["cap_violation"]
        ),
        "non_incremental_steps": sum(
            1 for s in applied_steps if not s["incremental"]
        ),
        "non_mbb_steps": sum(
            1 for s in applied_steps if not s["make_before_break"]
        ),
    }


# ---------------------------------------------------------------------------
# campaign suite: the smoke sweep, gated on its deterministic summary
# ---------------------------------------------------------------------------

def run_campaign_suite(quick: bool) -> dict:
    """Run the 6-topology x 2-protocol smoke campaign inline.

    Inline (``workers=1``) keeps the bench single-process; the campaign
    report is deterministic by construction either way, and the gate
    hashes the whole summary, so *any* behavior change in the protocol
    plug-ins, link-quality models, traffic accounting, or failure
    selection shows up as a baseline mismatch. One profile — ``quick``
    selects nothing.
    """
    import hashlib
    import tempfile

    from repro.campaign import run_campaign, smoke_spec

    spec = smoke_spec()
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="bench-campaign-") as tmp:
        campaign_report = run_campaign(spec, tmp, workers=1)
    wall = time.perf_counter() - start

    def _totals(name: str, group: dict) -> dict:
        repair = group.get("repair")
        traffic = dict(group["traffic"])
        messages = group["control_messages"]
        if repair:
            for key in traffic:
                traffic[key] += repair["traffic"][key]
            messages += repair["control_messages"]
        return {
            "protocol": name,
            "repair_convergence_mean_s": (
                repair["convergence_s"]["mean"] if repair else None
            ),
            "repair_modes": repair["modes"] if repair else {},
            "control_messages": messages,
            "messages_sent": traffic["messages_sent"],
            "messages_delivered": traffic["messages_delivered"],
            "packets_lost": traffic["packets_lost"],
            "packets_dropped": traffic["packets_dropped"],
        }

    blob = json.dumps(campaign_report, sort_keys=True).encode()
    return {
        "campaign": campaign_report["campaign"],
        "seed": campaign_report["seed"],
        "cells_total": campaign_report["cells_total"],
        "cells_ok": campaign_report["cells_ok"],
        "cells_failed": campaign_report["cells_failed"],
        "summary_sha256": hashlib.sha256(blob).hexdigest(),
        "protocols": [
            _totals(name, group)
            for name, group in campaign_report["protocols"].items()
        ],
        "sweep_wall_s": wall,
    }


# ---------------------------------------------------------------------------
# the suite table, and the one comparer / renderer it drives
# ---------------------------------------------------------------------------

#: field rule: must equal the baseline's value
EQ = "= baseline"
#: field rule: reported (wall clock and values derived from gated
#: ones), never read by :func:`compare`
INFO = "informational"
# any other rule is the literal value the field must hold in every run


@dataclass(frozen=True)
class Suite:
    """One ``--suite``: how to run it and which fields gate how."""

    run: Callable[[bool], dict]
    title: str
    #: report key holding the per-case records, and the record field
    #: that names a case
    cases: str
    key: str
    #: dotted path -> rule, for each case record / for the report
    case_fields: dict[str, object]
    fields: dict[str, object]


SUITES: dict[str, Suite] = {
    "reconfig": Suite(
        run=run_reconfig_suite,
        title="Reconfiguration (cold deploy, then a 1-link edit)",
        cases="scenarios",
        key="scenario",
        case_fields={
            "mode": EQ,
            "rules_installed_cold": EQ,
            "cut_links": EQ,
            "installed_entries": EQ,
            "rules_synthesized_cold": EQ,
            "rules_synthesized_incremental": EQ,
            "rules_pushed": EQ,
            "rules_unchanged": EQ,
            "rule_cache_hit_rate": EQ,
            "modeled_reconfigure_s": EQ,
            "partition_cache_hits_warm": EQ,
            "partition_cache_misses_warm": EQ,
            "links_built_incremental": EQ,
            "links_projected_incremental": EQ,
            "cold_deploy_s": INFO,
            "incremental_reconfigure_s": INFO,
            "warm_check_s": INFO,
        },
        fields={},
    ),
    "scale": Suite(
        run=run_scale_suite,
        title="Cold deploy over fat-tree k",
        cases="points",
        key="k",
        case_fields={
            "rules_installed": EQ,
            "cut_links": EQ,
            "installed_entries": EQ,
            "cold_deploy_s": INFO,
            "rules_per_s": INFO,
        },
        fields={},
    ),
    "churn": Suite(
        run=run_churn_suite,
        title="Tenant churn against the control-plane service",
        cases="profiles",
        key="sessions_target",
        case_fields={
            "sessions_admitted": EQ,
            "deploys_ok": EQ,
            "reconfigures_ok": EQ,
            "evictions": EQ,
            "errors": 0,
            "final_entries": 0,
            "projections_indexed": EQ,
            "storm.submitted": EQ,
            "storm.accepted": EQ,
            "storm.backpressure_rejected": EQ,
            "storm.deploys_ok": EQ,
            "storm.admission_rejected": EQ,
            "storm.other_errors": 0,
            "churn_wall_s": INFO,
            "sessions_per_s": INFO,
            "latency.admission.p50_s": INFO,
            "latency.admission.p99_s": INFO,
            "latency.commit.p50_s": INFO,
            "latency.commit.p99_s": INFO,
            "latency.evict.p50_s": INFO,
            "latency.evict.p99_s": INFO,
        },
        fields={"slots": EQ, "max_pending": EQ},
    ),
    "recovery": Suite(
        run=run_recovery_suite,
        title="Crash recovery over a growing journal (fat-tree k=4)",
        cases="points",
        key="ops",
        case_fields={
            "journal_records": EQ,
            "snapshot_lsn": EQ,
            "replay_window": EQ,
            "replayed": EQ,
            "skipped": EQ,
            "entries": EQ,
            "bit_identical": True,
            "recover_s": INFO,
        },
        fields={"snapshot_every": EQ},
    ),
    "multitenant": Suite(
        run=run_multitenant_suite,
        title="Multi-tenant scenario (3 tenants + 1 over-quota)",
        cases="tenants",
        key="tenant",
        case_fields={"rules_installed": EQ, "host_ports_used": EQ},
        fields={
            "admitted": EQ,
            "rejected": EQ,
            "total_rules_installed": EQ,
            "isolation_ok": True,
            "isolation_problems": INFO,
            "serve_s": INFO,
        },
    ),
    "engineer": Suite(
        run=run_engineer_suite,
        title="Topology engineering vs. a static ring",
        cases="phases",
        key="phase",
        case_fields={
            "act_static_s": EQ,
            "act_engineered_s": EQ,
            "steps_applied": EQ,
            "moves_total": EQ,
            "max_rules_pushed": EQ,
            "improvement": INFO,
        },
        fields={
            "steps_applied": EQ,
            "moves_total": EQ,
            "max_rules_pushed": EQ,
            "rules_cap": EQ,
            "phases_worse_than_static": 0,
            "cap_violations": 0,
            "non_incremental_steps": 0,
            "non_mbb_steps": 0,
        },
    ),
    "campaign": Suite(
        run=run_campaign_suite,
        title="Campaign smoke sweep",
        cases="protocols",
        key="protocol",
        case_fields={
            "repair_convergence_mean_s": EQ,
            "repair_modes": EQ,
            "control_messages": EQ,
            "messages_sent": EQ,
            "messages_delivered": EQ,
            "packets_lost": EQ,
            "packets_dropped": EQ,
        },
        fields={
            "cells_total": EQ,
            "cells_ok": EQ,
            "cells_failed": 0,
            "summary_sha256": EQ,
            "sweep_wall_s": INFO,
        },
    ),
}

#: every suite ``--suite`` accepts, read by the ``repro bench`` parser
#: and the docs tests
BENCH_SUITES = tuple(SUITES)


def _get(record: dict, path: str) -> Any:
    """The value at a dotted path; a path the record lacks is a
    ``KeyError``, so a typo in :data:`SUITES` cannot gate nothing."""
    for part in path.split("."):
        record = record[part]
    return record


def _fmt(path: str, value: object) -> object:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "NO"
    # seconds read better as milliseconds — but rates end in _s too
    if (
        isinstance(value, float)
        and path.endswith("_s")
        and not path.endswith("_per_s")
    ):
        return f"{value * 1e3:.2f} ms"
    if isinstance(value, dict):
        value = [f"{k}:{v}" for k, v in value.items()]
    if isinstance(value, list):
        return ", ".join(map(str, value)) or "-"
    return value


def run_suite(name: str, *, quick: bool = False) -> dict:
    """Run one suite; returns its report under the common header."""
    try:
        suite = SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown bench suite {name!r}; choose from {BENCH_SUITES}"
        ) from None
    return {
        "schema": SCHEMA_VERSION,
        "suite": name,
        "quick": quick,
        **suite.run(quick),
    }


def compare(report: dict, baseline: dict) -> list[str]:
    """Every way ``report`` departs from ``baseline``; empty = pass.

    :data:`EQ` fields must equal the baseline's, literal-rule fields
    must hold their literal, :data:`INFO` fields are not read. A case
    the baseline does not have skips its :data:`EQ` fields — which is
    what lets a ``--quick`` run gate against the full-profile baseline.
    """
    ours = (report["suite"], report["schema"])
    theirs = (baseline.get("suite"), baseline.get("schema"))
    if theirs != ours:
        return [f"baseline is (suite, schema) {theirs}, this run is {ours}"]
    suite = SUITES[report["suite"]]
    problems: list[str] = []

    def check(where: str, fields: dict, cur: dict, base: dict | None) -> None:
        for path, rule in fields.items():
            if rule == INFO:
                continue
            want = rule
            if rule == EQ:
                if base is None:
                    continue
                want = _get(base, path)
            got = _get(cur, path)
            if got != want:
                problems.append(
                    f"{where}{path} is {got!r}, "
                    f"{'baseline has' if rule == EQ else 'must be'} {want!r}"
                )

    check("", suite.fields, report, baseline)
    base_cases = {c[suite.key]: c for c in baseline[suite.cases]}
    for case in report[suite.cases]:
        name = case[suite.key]
        check(
            f"{suite.key}={name}: ", suite.case_fields, case,
            base_cases.get(name),
        )
    return problems


def render(report: dict) -> str:
    """Human-readable report: one row per field, one column per case,
    each row labelled with the rule that gates it."""
    suite = SUITES[report["suite"]]
    cases = report[suite.cases]

    def label(rule: object) -> object:
        return rule if rule in (EQ, INFO) else f"= {_fmt('', rule)}"

    table = format_table(
        [suite.key, *(c[suite.key] for c in cases), "gate"],
        [
            [path, *(_fmt(path, _get(c, path)) for c in cases), label(rule)]
            for path, rule in suite.case_fields.items()
        ],
        title=suite.title,
    )
    lines = [
        f"{path}: {_fmt(path, _get(report, path))}  [{label(rule)}]"
        for path, rule in suite.fields.items()
    ]
    return "\n".join([table, *lines])


def run_and_report(
    *,
    suite: str = "reconfig",
    quick: bool = False,
    out: str | None = None,
    baseline: str | None = None,
) -> int:
    """Run, write JSON (default ``BENCH_<suite>.json``), print the
    table, gate against a baseline. Exit status: 0 pass, 1 mismatch,
    2 unusable baseline path."""
    # a typo'd --baseline path must fail *before* the suite runs, not
    # exit nonzero-after-the-fact (and never pass the gate silently)
    base: dict | None = None
    if baseline:
        baseline_path = Path(baseline)
        if not baseline_path.is_file():
            print(
                f"error: baseline file not found: {baseline}",
                file=sys.stderr,
            )
            return 2
        base = json.loads(baseline_path.read_text())
    report = run_suite(suite, quick=quick)
    out = out or f"BENCH_{suite}.json"
    Path(out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    print(render(report))
    if base is not None:
        problems = compare(report, base)
        if problems:
            print(f"\nMISMATCH vs {baseline}:", file=sys.stderr)
            for p in problems:
                print(f"  - {p}", file=sys.stderr)
            return 1
        print(f"\nno regression vs {baseline}")
    return 0
