"""Reconfiguration benchmarks: cold deploy vs incremental reconfigure.

The paper's headline operational claim (Fig. 2, Table II) is that SDT
turns topology changes into a flow-table push; DESIGN.md §5b sharpens
that into *incremental* reconfiguration — a small logical edit should
cost O(changed links), not O(topology). This module measures exactly
that contrast, per scenario:

* **cold deploy** — a fresh controller (empty caches) deploys the base
  topology from scratch: full partition, full projection, full rule
  synthesis, every rule installed.
* **incremental reconfigure** — the same controller then applies a
  1-link edit: topology diff, cached partition extension, delta
  projection, cache-hit rule synthesis, and a FlowMod/strict-delete
  delta push.

Wall times are min-of-``repeats`` (each repeat on a fresh cluster, so
every repeat sees identical cache state); rule counts and cache hit
rates come from the telemetry metrics registry and are deterministic.
Results are written as machine-readable JSON (``BENCH_reconfig.json``)
and gated against a committed baseline by :func:`compare_to_baseline` —
wall-clock ratios are compared *normalized* (incremental/cold on the
same machine), so the gate is robust to absolute machine speed.

Run via ``python -m repro bench`` or ``benchmarks/harness.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.core import SDTController, TopologyConfig, build_cluster_for
from repro.hardware import EVAL_256x10G, SCALE_2048x10G, SwitchSpec
from repro.telemetry import metrics
from repro.topology import dragonfly, fat_tree, torus2d
from repro.topology.diff import rebuild, removable_switch_links
from repro.topology.graph import Topology
from repro.util import format_table

SCHEMA_VERSION = 1

#: every suite ``--suite`` accepts — the single source of truth read by
#: this module's main(), the ``repro bench`` CLI parser, and the docs
#: tests (the three drifted when each kept its own copy)
BENCH_SUITES = (
    "reconfig",
    "scale",
    "churn",
    "recovery",
    "multitenant",
    "engineer",
    "campaign",
)

#: gate tolerance: a run regresses when it is worse than baseline by
#: more than this fraction
DEFAULT_TOLERANCE = 0.25
DEFAULT_REPEATS = 3

#: wall-time ratios are only gated on scenarios whose cold deploy takes
#: at least this long — below it, single-digit-millisecond jitter
#: swamps a 25% tolerance (rules_pushed, being deterministic, is gated
#: on every scenario regardless)
MIN_GATE_SECONDS = 0.1


@dataclass(frozen=True)
class Scenario:
    """One benchmark case: a base topology and a rig to project it on."""

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


def _config_for(topology: Topology) -> TopologyConfig:
    """A self-contained custom config for ``topology``.

    Shortest-path routing works on *edited* topologies too (the named
    strategies dispatch on generator structure and may refuse a
    fat-tree missing a link); lossy mode keeps the Deadlock Avoidance
    module from vetoing edits — deadlock behavior has its own tests,
    this benchmark measures reconfiguration mechanics.
    """
    return TopologyConfig(
        kind="custom",
        params={
            "name": topology.name,
            "switches": list(topology.switches),
            "hosts": list(topology.hosts),
            "links": [list(link.endpoints) for link in topology.links],
        },
        routing="shortest-path",
        lossless=False,
    )


def _counter(name: str, **labels) -> float:
    inst = metrics.registry().get(name)
    return inst.value(**labels) if inst is not None else 0.0


def _cache_stats(name: str) -> dict:
    hits = _counter(name, result="hit")
    misses = _counter(name, result="miss")
    total = hits + misses
    return {
        "hits": int(hits),
        "misses": int(misses),
        "hit_rate": hits / total if total else 0.0,
    }


def _delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before[k] for k in after}


def run_scenario(scenario: Scenario, *, repeats: int = DEFAULT_REPEATS) -> dict:
    """Benchmark one scenario; returns its JSON-safe result record."""
    base = scenario.build()
    edit_key = removable_switch_links(base)[0]
    edited = rebuild(base, drop_links={edit_key})
    base_cfg = _config_for(base)
    edited_cfg = _config_for(edited)

    cold_s = float("inf")
    inc_s = float("inf")
    warm_s = float("inf")
    record: dict = {}
    for _ in range(max(1, repeats)):
        # a fresh rig per repeat: every repeat measures the same cold
        # caches at deploy and the same warm caches at reconfigure
        cluster = build_cluster_for(
            [base], scenario.num_switches, EVAL_256x10G
        )
        controller = SDTController(cluster)

        def snap() -> dict:
            return {
                "synthesized": _counter("sdt_rules_synthesized_total"),
                "pushed": _counter("sdt_reconfig_rules_pushed_total"),
                "unchanged": _counter("sdt_reconfig_rules_unchanged_total"),
                "cache_hits": _counter("sdt_rules_cache_total", result="hit"),
                "cache_misses": _counter(
                    "sdt_rules_cache_total", result="miss"
                ),
                "mode_incremental": _counter(
                    "sdt_controller_reconfigure_mode_total",
                    mode="incremental",
                ),
                "mode_cold": _counter(
                    "sdt_controller_reconfigure_mode_total", mode="cold"
                ),
                "partition_hits": _counter(
                    "sdt_partition_cache_total", result="hit"
                ),
                "partition_misses": _counter(
                    "sdt_partition_cache_total", result="miss"
                ),
            }

        before_deploy = snap()
        t0 = time.perf_counter()
        deployment = controller.deploy(base_cfg)
        cold_s = min(cold_s, time.perf_counter() - t0)
        before_reconf = snap()

        t0 = time.perf_counter()
        _, modeled = controller.reconfigure(edited_cfg)
        inc_s = min(inc_s, time.perf_counter() - t0)
        after = snap()

        # warm re-check of the now-live topology: the incremental path
        # seeds the partition cache with the extended partition, so
        # this must be served from the cache (the gate asserts it)
        t0 = time.perf_counter()
        controller.check(edited_cfg)
        warm_s = min(warm_s, time.perf_counter() - t0)
        after_warm = snap()

        deploy_d = _delta(before_reconf, before_deploy)
        reconf_d = _delta(after, before_reconf)
        warm_d = _delta(after_warm, after)
        reconf_lookups = reconf_d["cache_hits"] + reconf_d["cache_misses"]
        record = {
            "scenario": scenario.name,
            "logical_switches": len(base.switches),
            "logical_hosts": len(base.hosts),
            "logical_links": len(base.links),
            "phys_switches": scenario.num_switches,
            "edit": {"removed_links": [list(edit_key)], "added_links": []},
            "mode": (
                "incremental"
                if reconf_d["mode_incremental"] > 0
                else "cold"
            ),
            "rules_installed_cold": deployment.rules.count(),
            "rules_synthesized_cold": int(deploy_d["synthesized"]),
            "rules_synthesized_incremental": int(reconf_d["synthesized"]),
            "rules_pushed": int(reconf_d["pushed"]),
            "rules_unchanged": int(reconf_d["unchanged"]),
            "rule_cache_hit_rate": (
                reconf_d["cache_hits"] / reconf_lookups
                if reconf_lookups
                else 0.0
            ),
            "modeled_reconfigure_s": modeled,
            "partition_cache_hits_warm": int(warm_d["partition_hits"]),
            "partition_cache_misses_warm": int(warm_d["partition_misses"]),
        }
    record["cold_deploy_s"] = cold_s
    record["incremental_reconfigure_s"] = inc_s
    record["warm_check_s"] = warm_s
    record["speedup"] = cold_s / inc_s if inc_s > 0 else 0.0
    return record


def run_suite(*, quick: bool = False, repeats: int = DEFAULT_REPEATS) -> dict:
    """Run the (quick or full) scenario set; returns the report dict."""
    chosen = [s for s in SCENARIOS if s.quick or not quick]
    results = [run_scenario(s, repeats=repeats) for s in chosen]
    return {
        "schema": SCHEMA_VERSION,
        "suite": "reconfig",
        "quick": quick,
        "repeats": repeats,
        "cache": _cache_stats("sdt_rules_cache_total"),
        "partition_cache": _cache_stats("sdt_partition_cache_total"),
        "scenarios": results,
    }


#: scale-curve points: fat-tree k, physical switch count, and the rig
#: spec. k=16 (320 switches, 1024 hosts, ~340k rules) needs the
#: synthetic 1024-port chassis; it is excluded from ``--quick`` runs.
SCALE_POINTS: tuple[tuple[int, int, SwitchSpec, bool], ...] = (
    (4, 2, EVAL_256x10G, True),
    (8, 4, EVAL_256x10G, True),
    (16, 8, SCALE_2048x10G, False),
)


def run_scale_suite(
    *, quick: bool = False, repeats: int = DEFAULT_REPEATS
) -> dict:
    """Cold-deploy scaling curve over fat-tree k (the data-plane fast
    path end to end: partition, projection, routing, columnar rule
    synthesis, batched install).

    Each point deploys on a fresh controller (cold caches) and reports
    min-of-``repeats`` wall time plus the deterministic rule count.
    ``rules_per_s`` is the derived install throughput — the number the
    scaling claim in DESIGN.md is pinned against.
    """
    points = []
    for k, num_switches, spec, in_quick in SCALE_POINTS:
        if quick and not in_quick:
            continue
        topo = fat_tree(k)
        cfg = _config_for(topo)
        cold_s = float("inf")
        rules_installed = 0
        for _ in range(max(1, repeats)):
            cluster = build_cluster_for([topo], num_switches, spec)
            controller = SDTController(cluster)
            t0 = time.perf_counter()
            deployment = controller.deploy(cfg)
            cold_s = min(cold_s, time.perf_counter() - t0)
            rules_installed = deployment.rules.count()
        points.append({
            "k": k,
            "logical_switches": len(topo.switches),
            "logical_hosts": len(topo.hosts),
            "logical_links": len(topo.links),
            "phys_switches": num_switches,
            "spec": spec.model,
            "rules_installed": rules_installed,
            "cold_deploy_s": cold_s,
            "rules_per_s": rules_installed / cold_s if cold_s > 0 else 0.0,
        })
    return {
        "schema": SCHEMA_VERSION,
        "suite": "scale",
        "quick": quick,
        "repeats": repeats,
        "points": points,
    }


def compare_scale_to_baseline(
    current: dict, baseline: dict, *, tolerance: float = DEFAULT_TOLERANCE
) -> list[str]:
    """Scale-suite regressions.

    ``rules_installed`` is deterministic and must match the baseline
    exactly. Wall time is machine-dependent, so the gated quantity is
    the *shape* of the curve: the cold-deploy time ratio between
    consecutive points, which cancels absolute machine speed the same
    way the reconfig suite's incremental/cold ratio does. Ratios are
    only gated when the smaller point's cold deploy exceeds
    :data:`MIN_GATE_SECONDS` in both reports; points present in only
    one report are skipped (quick runs gate against a full baseline).
    """
    problems: list[str] = []
    base_by_k = {p["k"]: p for p in baseline.get("points", [])}
    cur_points = [
        p for p in current.get("points", []) if p["k"] in base_by_k
    ]
    for cur in cur_points:
        base = base_by_k[cur["k"]]
        if cur["rules_installed"] != base["rules_installed"]:
            problems.append(
                f"k={cur['k']}: rules installed changed "
                f"{base['rules_installed']} -> {cur['rules_installed']} "
                "(synthesis is deterministic; this is a behavior change)"
            )
    for prev, cur in zip(cur_points, cur_points[1:]):
        base_prev = base_by_k[prev["k"]]
        base_cur = base_by_k[cur["k"]]
        measurable = (
            prev["cold_deploy_s"] >= MIN_GATE_SECONDS
            and base_prev["cold_deploy_s"] >= MIN_GATE_SECONDS
        )
        if not measurable:
            continue
        base_ratio = base_cur["cold_deploy_s"] / base_prev["cold_deploy_s"]
        cur_ratio = cur["cold_deploy_s"] / prev["cold_deploy_s"]
        if cur_ratio > base_ratio * (1 + tolerance):
            problems.append(
                f"k={prev['k']}->k={cur['k']}: cold-deploy growth ratio "
                f"regressed {base_ratio:.2f} -> {cur_ratio:.2f} "
                f"(> {tolerance:.0%} over baseline)"
            )
    return problems


def render_scale_report(report: dict) -> str:
    rows = [
        [
            f"k={p['k']}",
            p["logical_switches"],
            p["logical_hosts"],
            p["phys_switches"],
            p["rules_installed"],
            f"{p['cold_deploy_s'] * 1e3:.1f}",
            f"{p['rules_per_s'] / 1e3:.0f}k",
        ]
        for p in report["points"]
    ]
    return format_table(
        ["Point", "Switches", "Hosts", "Phys", "Rules", "Cold (ms)",
         "Rules/s"],
        rows,
        title="Cold-deploy scaling curve (fat-tree)",
    )


#: the multi-tenant bench scenario: three tenants sharing one pool,
#: plus one deliberately over-quota tenant whose rejection (and its
#: zero-mutation guarantee) is part of what the gate pins down
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


def run_multitenant_suite(*, repeats: int = DEFAULT_REPEATS) -> dict:
    """Benchmark the multi-tenant service path on a fixed scenario.

    Wall time covers the whole serve: session admission, scheduling,
    preparation, transactional install, and the post-commit isolation
    verification. The deterministic fields the baseline gate pins are
    per-tenant installed rule counts, the admitted/rejected split, and
    ``isolation_ok`` — any drift there is a behavior change, not noise.
    """
    from repro.tenancy import (
        TenantQuota,
        TestbedService,
        build_pool_for_tenants,
    )
    from repro.util.errors import AdmissionError

    configs = {
        t: TopologyConfig(kind, dict(params))
        for t, _, _, kind, params in _MT_TENANTS
    }
    planned = [
        configs[t].build()
        for t, _, _, _, _ in _MT_TENANTS
        if t != "greedy"  # the pool is sized for the admitted set only
    ]
    serve_s = float("inf")
    record: dict = {}
    for _ in range(max(1, repeats)):
        cluster = build_pool_for_tenants(
            planned, 3, EVAL_256x10G, spare_hosts=4
        )
        service = TestbedService(cluster, max_workers=3)
        tenants: dict = {}
        rejected: list[str] = []
        t0 = time.perf_counter()
        try:
            futures = []
            for tenant, ports, share, _, _ in _MT_TENANTS:
                try:
                    service.open_session(
                        tenant,
                        TenantQuota(host_ports=ports, tcam_share=share),
                    )
                except AdmissionError:
                    rejected.append(tenant)
                    continue
                futures.append(
                    (tenant, service.submit_deploy(tenant, configs[tenant]))
                )
            for tenant, future in futures:
                try:
                    dep = future.result()
                except AdmissionError:
                    rejected.append(tenant)
                else:
                    tenants[tenant] = {
                        "rules_installed": dep.rules.count(),
                        "host_ports_used": sum(
                            1
                            for r in (
                                dep.projection.link_realization.values()
                            )
                            if type(r).__name__ == "HostPort"
                        ),
                    }
            service.drain(60)
            serve_s = min(serve_s, time.perf_counter() - t0)
            report = service.verifier.verify(
                [
                    s
                    for s in service.sessions.values()
                    if s.state == "active"
                ],
                strict=False,
            )
            record = {
                "tenants": tenants,
                "admitted": sorted(tenants),
                "rejected": sorted(rejected),
                "isolation_ok": report.ok,
                "isolation_problems": report.problems,
                "total_rules_installed": sum(
                    v["rules_installed"] for v in tenants.values()
                ),
            }
        finally:
            service.shutdown()
    record["serve_s"] = serve_s
    return {
        "schema": SCHEMA_VERSION,
        "suite": "multitenant",
        "repeats": repeats,
        **record,
    }


def compare_multitenant_to_baseline(
    current: dict, baseline: dict
) -> list[str]:
    """Regressions in the multi-tenant suite are exact mismatches: the
    scenario is deterministic, so rule counts and the admitted/rejected
    split must match the baseline bit-for-bit, and isolation must hold.
    (``serve_s`` is machine-dependent and informational only.)"""
    problems: list[str] = []
    if not current.get("isolation_ok", False):
        problems.append(
            "isolation verification failed: "
            + "; ".join(current.get("isolation_problems", []))
        )
    for key in ("admitted", "rejected"):
        if current.get(key) != baseline.get(key):
            problems.append(
                f"{key} tenants changed: "
                f"{baseline.get(key)} -> {current.get(key)}"
            )
    base_tenants = baseline.get("tenants", {})
    for tenant, cur in current.get("tenants", {}).items():
        base = base_tenants.get(tenant)
        if base is None:
            continue
        for field in ("rules_installed", "host_ports_used"):
            if cur.get(field) != base.get(field):
                problems.append(
                    f"{tenant}: {field} changed "
                    f"{base.get(field)} -> {cur.get(field)}"
                )
    return problems


def render_multitenant_report(report: dict) -> str:
    rows = [
        [t, v["rules_installed"], v["host_ports_used"]]
        for t, v in sorted(report["tenants"].items())
    ]
    rows.append([
        "(rejected)", ", ".join(report["rejected"]) or "-", "",
    ])
    table = format_table(
        ["Tenant", "Rules", "Host ports"],
        rows,
        title="Multi-tenant benchmark (3 tenants + 1 over-quota)",
    )
    return (
        f"{table}\n"
        f"serve wall time: {report['serve_s'] * 1e3:.1f} ms   "
        f"isolation: {'OK' if report['isolation_ok'] else 'VIOLATED'}"
    )


#: recovery suite points: committed mutations after the deploy, and
#: whether the point is in ``--quick`` runs
RECOVERY_POINTS: tuple[tuple[int, bool], ...] = (
    (2, True),
    (8, True),
    (32, False),
)

#: snapshot cadence for the recovery suite (committed transactions)
RECOVERY_SNAPSHOT_EVERY = 4

#: recovery wall times below this are treated as trivially bounded —
#: the sub-linearity check needs measurable times to divide
MIN_RECOVERY_GATE_SECONDS = 0.05


def run_recovery_suite(
    *, quick: bool = False, repeats: int = DEFAULT_REPEATS
) -> dict:
    """Recovery-time-vs-journal-length curve.

    Each point deploys fat-tree k=4 with a commit journal installed,
    applies N link fail/restore mutations (each one a committed
    transaction), snapshotting every
    :data:`RECOVERY_SNAPSHOT_EVERY` commits — then measures cold
    recovery (newest snapshot + journal replay, materialized onto a
    fresh cluster) as min-of-``repeats`` wall time. Because snapshots
    bound the replay window, recovery time should stay roughly flat
    while the total journal grows — i.e. grow *sub-linearly* in
    journal length, which the report records as ``sublinear`` (taken
    as true when every recovery is under
    :data:`MIN_RECOVERY_GATE_SECONDS`, where jitter dominates).
    """
    import tempfile

    from repro.recovery import (
        SnapshotManager,
        apply_recovery,
        install_journal,
        load_recovery,
        uninstall_journal,
    )

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
            topo = fat_tree(4)
            cfg = _config_for(topo)
            cluster = build_cluster_for([topo], 2, EVAL_256x10G)
            controller = SDTController(cluster)
            install_journal(journal)
            try:
                deployment = controller.deploy(cfg)
                links = deployment.topology.switch_links
                failed = False
                for i in range(ops):
                    if failed:
                        controller.restore_links(deployment)
                        failed = False
                    else:
                        controller.fail_link(
                            deployment, links[i % len(links)].index
                        )
                        failed = True
                    manager.maybe_write(controller, journal)
            finally:
                uninstall_journal()

            # expected state: what the uninterrupted run installed
            expected = {
                name: sorted(sw.installed_rules())
                for name, sw in cluster.switches.items()
            }

            recover_s = float("inf")
            result = None
            for _ in range(max(1, repeats)):
                fresh = build_cluster_for([topo], 2, EVAL_256x10G)
                t0 = time.perf_counter()
                result = load_recovery(state_dir)
                apply_recovery(result, fresh)
                recover_s = min(recover_s, time.perf_counter() - t0)
            recovered = {
                name: sorted(sw.installed_rules())
                for name, sw in fresh.switches.items()
            }
            assert result is not None
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
                "bit_identical": recovered == expected,
            })
    first, last = points[0], points[-1]
    records_ratio = (
        last["journal_records"] / max(1, first["journal_records"])
    )
    if last["recover_s"] < MIN_RECOVERY_GATE_SECONDS:
        sublinear = True  # bounded below measurable time
        time_ratio = 0.0
    else:
        time_ratio = last["recover_s"] / max(first["recover_s"], 1e-9)
        sublinear = time_ratio < records_ratio
    return {
        "schema": SCHEMA_VERSION,
        "suite": "recovery",
        "quick": quick,
        "repeats": repeats,
        "snapshot_every": RECOVERY_SNAPSHOT_EVERY,
        "points": points,
        "journal_growth_ratio": records_ratio,
        "recover_time_ratio": time_ratio,
        "sublinear": sublinear,
    }


def compare_recovery_to_baseline(
    current: dict, baseline: dict
) -> list[str]:
    """Recovery-suite regressions.

    The workload is deterministic, so the journal shape and the
    recovered state are gated exactly: record counts, replay windows,
    replayed-transaction counts, and entry totals must match the
    baseline, and every point must recover bit-identically. Wall time
    is machine-dependent; what is gated is the *shape* — the current
    report's own ``sublinear`` verdict (recovery time must not grow
    as fast as the journal does). Points present in only one report
    are skipped (quick runs gate against a full baseline).
    """
    problems: list[str] = []
    base_by_ops = {p["ops"]: p for p in baseline.get("points", [])}
    for cur in current.get("points", []):
        base = base_by_ops.get(cur["ops"])
        if base is None:
            continue
        for field_name in (
            "journal_records", "snapshot_lsn", "replay_window",
            "replayed", "skipped", "entries",
        ):
            if cur[field_name] != base[field_name]:
                problems.append(
                    f"ops={cur['ops']}: {field_name} changed "
                    f"{base[field_name]} -> {cur[field_name]} "
                    "(journal/replay is deterministic; this is a "
                    "behavior change)"
                )
        if not cur["bit_identical"]:
            problems.append(
                f"ops={cur['ops']}: recovered switch state diverged "
                "from the uninterrupted run"
            )
    if not current.get("sublinear", False):
        problems.append(
            "recovery time grew as fast as the journal "
            f"(time ratio {current.get('recover_time_ratio', 0):.2f} vs "
            f"journal ratio {current.get('journal_growth_ratio', 0):.2f}) "
            "— snapshots are not bounding replay"
        )
    return problems


def render_recovery_report(report: dict) -> str:
    rows = [
        [
            p["ops"],
            p["journal_records"],
            p["snapshot_lsn"],
            p["replay_window"],
            p["replayed"],
            p["entries"],
            f"{p['recover_s'] * 1e3:.1f}",
            "yes" if p["bit_identical"] else "NO",
        ]
        for p in report["points"]
    ]
    table = format_table(
        ["Ops", "Journal", "Snap LSN", "Window", "Replayed", "Entries",
         "Recover (ms)", "Identical"],
        rows,
        title=(
            "Recovery benchmark (snapshot every "
            f"{report['snapshot_every']} commits)"
        ),
    )
    return (
        f"{table}\n"
        f"journal growth {report['journal_growth_ratio']:.1f}x, "
        f"recovery time growth "
        f"{report['recover_time_ratio']:.2f}x -> "
        f"{'sub-linear' if report['sublinear'] else 'NOT sub-linear'}"
    )


#: churn-suite shape: live tenant slots per wave, and total sessions
#: for the full and quick profiles. 1000+ sessions is the acceptance
#: floor for the full profile (ISSUE 8); quick keeps CI under a minute.
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


def run_churn_suite(
    *, quick: bool = False, repeats: int = DEFAULT_REPEATS
) -> dict:
    """Fleet-churn benchmark against the async control-plane service.

    Drives the in-process :class:`~repro.service.app.
    ControlPlaneService` (no HTTP: the suite measures the service, not
    the socket) through two phases:

    * **churn** — :data:`CHURN_SESSIONS_FULL` (or ``_QUICK``) tenant
      sessions across :data:`CHURN_SLOTS` concurrent slots; each
      session is admit → deploy → (seeded coin) reconfigure → evict,
      with client-observed admission and commit latencies sampled on
      every operation (p50/p99 reported);
    * **storm** — a synchronous submission burst of ``max_pending x
      CHURN_STORM_FACTOR`` deploys: exactly ``max_pending`` are
      admitted to the queue, the rest are backpressure-rejected with
      zero mutation; of the admitted ops, host-port quotas allow
      exactly one deploy per storm tenant, so the admission-reject
      count is deterministic too.

    The gate pins the deterministic fields (session/op/reject counts,
    final pool emptiness); latencies are machine-dependent and
    informational. ``repeats`` is recorded but the suite runs once —
    with 1000+ sessions the law of large numbers does the averaging.
    """
    import asyncio
    import random

    from repro.service.app import ControlPlaneService
    from repro.service.asyncsched import BackpressureError
    from repro.tenancy import TenantQuota, build_pool_for_tenants
    from repro.util.errors import AdmissionError

    del repeats  # recorded by the caller's report; one pass is enough
    sessions_total = CHURN_SESSIONS_QUICK if quick else CHURN_SESSIONS_FULL
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
        futures = []
        bp_rejected = 0
        # a tight synchronous submission loop: nothing yields, and no
        # operation body starts before the loop turn ends, so no
        # completion can interleave — exactly max_pending ops are
        # admitted before the bound trips, deterministically
        for j in range(submitted):
            tenant = f"s{j % CHURN_STORM_TENANTS}"
            op = service.testbed.make_operation(
                "deploy", tenant, config=chain3
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
        other = len(outcomes) - ok - admission_rejected
        for i in range(CHURN_STORM_TENANTS):
            await service.submit("evict", f"s{i}")
        return {
            "submitted": submitted,
            "accepted": len(futures),
            "backpressure_rejected": bp_rejected,
            "deploys_ok": ok,
            "admission_rejected": admission_rejected,
            "other_errors": other,
        }

    async def drive() -> dict:
        service = ControlPlaneService(
            pool, workers=4, max_pending=CHURN_MAX_PENDING
        )
        await service.start()
        try:
            t0 = time.perf_counter()
            session_no = 0
            while session_no < sessions_total:
                wave = []
                for slot in range(CHURN_SLOTS):
                    if session_no >= sessions_total:
                        break
                    wave.append(lifecycle(service, session_no, slot))
                    session_no += 1
                await asyncio.gather(*wave)
            churn_wall = time.perf_counter() - t0
            storm_record = await storm(service)
        finally:
            await service.stop()
        final_entries = sum(
            sw.num_entries for sw in pool.switches.values()
        )
        return {
            "churn_wall_s": churn_wall,
            "storm": storm_record,
            "final_entries": final_entries,
        }

    run = asyncio.run(drive())
    wall = run["churn_wall_s"]
    return {
        "schema": SCHEMA_VERSION,
        "suite": "churn",
        "quick": quick,
        "slots": CHURN_SLOTS,
        "max_pending": CHURN_MAX_PENDING,
        "sessions_target": sessions_total,
        **counts,
        "storm": run["storm"],
        "final_entries": run["final_entries"],
        "churn_wall_s": wall,
        "sessions_per_s": sessions_total / wall if wall > 0 else 0.0,
        "latency": {
            "admission": _latency_record(admission_lat),
            "commit": _latency_record(commit_lat),
            "evict": _latency_record(evict_lat),
        },
    }


def compare_churn_to_baseline(current: dict, baseline: dict) -> list[str]:
    """Churn-suite regressions are exact mismatches on the
    deterministic fields: every session must complete its lifecycle
    (counts match), the storm's backpressure and admission splits must
    match, and the pool must end empty. Latency numbers are
    machine-dependent and not gated — the SLO lives in the report.
    Reconfigure counts are seeded-RNG-deterministic per profile, so
    they only gate when both reports ran the same profile."""
    problems: list[str] = []
    same_profile = current.get("quick") == baseline.get("quick")
    fields = ["final_entries", "errors"]
    if same_profile:
        fields += [
            "sessions_target", "sessions_admitted", "deploys_ok",
            "reconfigures_ok", "evictions",
        ]
    for key in fields:
        if current.get(key) != baseline.get(key):
            problems.append(
                f"{key} changed {baseline.get(key)} -> {current.get(key)} "
                "(churn lifecycle is deterministic; this is a behavior "
                "change)"
            )
    cur_storm = current.get("storm", {})
    base_storm = baseline.get("storm", {})
    for key in ("submitted", "accepted", "backpressure_rejected",
                "deploys_ok", "admission_rejected", "other_errors"):
        if cur_storm.get(key) != base_storm.get(key):
            problems.append(
                f"storm.{key} changed "
                f"{base_storm.get(key)} -> {cur_storm.get(key)} "
                "(bounded-queue admission is deterministic)"
            )
    if current.get("sessions_admitted", 0) < current.get(
        "sessions_target", 0
    ):
        problems.append(
            f"only {current.get('sessions_admitted')} of "
            f"{current.get('sessions_target')} sessions were admitted"
        )
    return problems


def render_churn_report(report: dict) -> str:
    lat = report["latency"]
    rows = [
        [
            phase,
            lat[phase]["samples"],
            f"{lat[phase]['p50_s'] * 1e3:.1f}",
            f"{lat[phase]['p99_s'] * 1e3:.1f}",
            f"{lat[phase]['max_s'] * 1e3:.1f}",
        ]
        for phase in ("admission", "commit", "evict")
    ]
    table = format_table(
        ["Phase", "Samples", "p50 (ms)", "p99 (ms)", "max (ms)"],
        rows,
        title=(
            f"Churn benchmark ({report['sessions_admitted']} sessions, "
            f"{report['slots']} slots)"
        ),
    )
    storm = report["storm"]
    return (
        f"{table}\n"
        f"churn: {report['sessions_per_s']:.0f} sessions/s over "
        f"{report['churn_wall_s']:.1f}s   "
        f"deploys {report['deploys_ok']}, "
        f"reconfigures {report['reconfigures_ok']}, "
        f"evictions {report['evictions']}\n"
        f"storm: {storm['submitted']} submitted, "
        f"{storm['accepted']} queued, "
        f"{storm['backpressure_rejected']} backpressured, "
        f"{storm['admission_rejected']} admission-rejected   "
        f"final entries: {report['final_entries']}"
    )


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


def _engineer_ring(n: int) -> Topology:
    topo = Topology(f"ring{n}")
    for i in range(n):
        topo.add_switch(f"s{i}")
    for i in range(n):
        topo.connect(f"s{i}", f"s{(i + 1) % n}")
    for i in range(n):
        topo.add_host(f"h{i}")
        topo.connect(f"h{i}", f"s{i}")
    return topo


def _engineer_headroom(n: int) -> Topology:
    """Planning envelope for the rig: the complete switch graph, so the
    physical wiring can realize any topology the search may propose."""
    topo = Topology(f"ring{n}-headroom")
    for i in range(n):
        topo.add_switch(f"s{i}")
    for i in range(n):
        for j in range(i + 1, n):
            topo.connect(f"s{i}", f"s{j}")
    for i in range(n):
        topo.add_host(f"h{i}")
        topo.connect(f"h{i}", f"s{i}")
    return topo


def run_engineer_suite(
    *, quick: bool = False, repeats: int = DEFAULT_REPEATS
) -> dict:
    """Closed-loop topology engineering vs. a static topology.

    Two rigs deploy the same 8-switch ring. Each phase replays a
    skewed workload (three concurrent RoCE transfers between distant
    hosts) on both; the *engineered* rig then runs the
    monitor→optimize→reconfigure loop (DESIGN.md §9) and replays the
    workload again, while the *static* rig keeps the ring. The second
    phase shifts the hot pairs, so the loop must re-engineer a
    topology it already bent toward the first phase's demand.

    Reported per phase: application completion time (netsim modeled
    seconds, deterministic) on both rigs, the improvement ratio, and
    per-step disruption — moves, rules actually pushed (measured via
    ``sdt_reconfig_rules_pushed_total``), reconfigure mode, and commit
    strategy. Every applied step must take the incremental
    make-before-break path: that is the "zero admission-violating
    transients" acceptance check, since MBB validates both generations
    fit before any switch is touched.

    ``quick`` and ``repeats`` are accepted for harness symmetry; the
    workload is modeled-time, fully deterministic, and already CI-fast.
    """
    from repro.engineering import (
        EngineerParams,
        PortBudget,
        TopologyEngineer,
    )
    from repro.netsim import RoceTransport, build_sdt_network

    topo = _engineer_ring(ENGINEER_RING)
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
        cluster = build_cluster_for(
            [topo, _engineer_headroom(ENGINEER_RING)], 3, EVAL_256x10G
        )
        controller = SDTController(cluster)
        deployment = controller.deploy(_config_for(topo))
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

    phases: list[dict] = []
    for phase_name, pairs in ENGINEER_PHASES:
        act_static = drive(static_ctrl, static_dep, pairs, "static")
        act_eng = drive(eng_ctrl, engineer.deployment, pairs, "engineered")
        steps: list[dict] = []
        for _ in range(ENGINEER_MAX_STEPS):
            mode_before = _counter(
                "sdt_controller_reconfigure_mode_total", mode="incremental"
            )
            mbb_before = _counter(
                "sdt_controller_commit_strategy_total",
                strategy="make-before-break",
            )
            step = engineer.step()
            record = step.summary()
            record["incremental"] = bool(
                _counter(
                    "sdt_controller_reconfigure_mode_total",
                    mode="incremental",
                )
                > mode_before
            )
            record["make_before_break"] = bool(
                _counter(
                    "sdt_controller_commit_strategy_total",
                    strategy="make-before-break",
                )
                > mbb_before
            )
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

    all_steps = [s for p in phases for s in p["steps"]]
    applied_steps = [s for s in all_steps if s["applied"]]
    return {
        "schema": SCHEMA_VERSION,
        "suite": "engineer",
        "quick": quick,
        "ring": ENGINEER_RING,
        "rules_cap": ENGINEER_RULES_CAP,
        "max_moves": ENGINEER_MAX_MOVES,
        "phases": phases,
        "steps_applied": len(applied_steps),
        "moves_total": sum(len(s["moves"]) for s in applied_steps),
        "max_rules_pushed": max(
            (s["rules_pushed"] for s in applied_steps), default=0
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


def compare_engineer_to_baseline(
    current: dict, baseline: dict, *, tolerance: float = DEFAULT_TOLERANCE
) -> list[str]:
    """Engineer-suite regressions.

    The whole suite is deterministic (modeled netsim time, sorted
    search, no RNG), so the loop's *decisions* gate exactly: steps
    applied, moves, and rules pushed per phase must match the
    baseline. ACT improvement gates with tolerance, plus two absolute
    requirements independent of the baseline: the engineered topology
    must never be worse than static (improvement >= 1), and disruption
    must stay bounded — zero cap violations and every applied step on
    the incremental make-before-break path (no admission-violating
    transients)."""
    problems: list[str] = []
    base_by_phase = {p["phase"]: p for p in baseline.get("phases", [])}
    for cur in current.get("phases", []):
        name = cur["phase"]
        if cur["improvement"] < 1.0:
            problems.append(
                f"{name}: engineered topology is WORSE than static "
                f"(improvement {cur['improvement']:.2f}x)"
            )
        base = base_by_phase.get(name)
        if base is None:
            continue
        if cur["improvement"] < base["improvement"] * (1 - tolerance):
            problems.append(
                f"{name}: ACT improvement regressed "
                f"{base['improvement']:.2f}x -> {cur['improvement']:.2f}x "
                f"(> {tolerance:.0%} below baseline)"
            )
        for field_name in ("steps_applied", "moves_total",
                           "max_rules_pushed"):
            if cur[field_name] != base[field_name]:
                problems.append(
                    f"{name}: {field_name} changed "
                    f"{base[field_name]} -> {cur[field_name]} "
                    "(the engineering loop is deterministic; this is "
                    "a behavior change)"
                )
    if current.get("cap_violations", 0) != 0:
        problems.append(
            f"{current['cap_violations']} step(s) exceeded the "
            f"per-step rules-pushed cap ({current.get('rules_cap')})"
        )
    if current.get("non_incremental_steps", 0) != 0:
        problems.append(
            f"{current['non_incremental_steps']} applied step(s) fell "
            "off the incremental reconfigure path"
        )
    if current.get("non_mbb_steps", 0) != 0:
        problems.append(
            f"{current['non_mbb_steps']} applied step(s) committed "
            "break-before-make (transient forwarding gap)"
        )
    return problems


def render_engineer_report(report: dict) -> str:
    rows = []
    for p in report["phases"]:
        rows.append([
            p["phase"],
            f"{p['act_static_s'] * 1e3:.2f}",
            f"{p['act_engineered_s'] * 1e3:.2f}",
            f"{p['improvement']:.2f}x",
            p["steps_applied"],
            p["moves_total"],
            p["max_rules_pushed"],
        ])
    table = format_table(
        ["Phase", "Static ACT (ms)", "Engineered (ms)", "Improvement",
         "Steps", "Moves", "Max pushed"],
        rows,
        title=(
            f"Topology-engineering benchmark (ring {report['ring']}, "
            f"rules cap {report['rules_cap']}/step)"
        ),
    )
    return (
        f"{table}\n"
        f"applied {report['steps_applied']} steps / "
        f"{report['moves_total']} moves, "
        f"max {report['max_rules_pushed']} rules pushed per step, "
        f"{report['cap_violations']} cap violations, "
        f"{report['non_mbb_steps']} non-MBB commits"
    )


# ---------------------------------------------------------------------------
# campaign suite: the smoke sweep, gated on its deterministic summary
# ---------------------------------------------------------------------------

def run_campaign_suite(
    *, quick: bool = False, repeats: int = DEFAULT_REPEATS
) -> dict:
    """Run the 6-topology x 2-protocol smoke campaign inline.

    Inline (``workers=1``) keeps the bench single-process; the campaign
    report is deterministic by construction either way, and the gate
    hashes the whole summary, so *any* behavior change in the protocol
    plug-ins, link-quality models, traffic accounting, or failure
    selection shows up as a baseline mismatch. Wall time is recorded
    but informational (cells are dominated by pure-python protocol
    convergence, which varies by machine).
    """
    import hashlib
    import tempfile

    from repro.campaign import run_campaign, smoke_spec

    spec = smoke_spec()
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="bench-campaign-") as tmp:
        campaign_report = run_campaign(spec, tmp, workers=1)
    wall = time.perf_counter() - start

    def _totals(group: dict) -> dict:
        repair = group.get("repair")
        traffic = dict(group["traffic"])
        messages = group["control_messages"]
        if repair:
            for key in traffic:
                traffic[key] += repair["traffic"][key]
            messages += repair["control_messages"]
        return {
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
        "schema": SCHEMA_VERSION,
        "suite": "campaign",
        "quick": quick,
        "campaign": campaign_report["campaign"],
        "seed": campaign_report["seed"],
        "cells_total": campaign_report["cells_total"],
        "cells_ok": campaign_report["cells_ok"],
        "cells_failed": campaign_report["cells_failed"],
        "summary_sha256": hashlib.sha256(blob).hexdigest(),
        "protocols": {
            name: _totals(group)
            for name, group in campaign_report["protocols"].items()
        },
        "wall_s": {"sweep": wall},
    }


def compare_campaign_to_baseline(
    current: dict, baseline: dict
) -> list[str]:
    """Campaign-suite regressions: everything gated is deterministic,
    so the comparison is exact — cell counts, per-protocol convergence
    and traffic totals, and the summary hash (the catch-all)."""
    problems: list[str] = []
    for field_name in ("cells_total", "cells_ok", "cells_failed"):
        if current.get(field_name) != baseline.get(field_name):
            problems.append(
                f"{field_name} changed "
                f"{baseline.get(field_name)} -> {current.get(field_name)}"
            )
    for name, base_group in baseline.get("protocols", {}).items():
        cur_group = current.get("protocols", {}).get(name)
        if cur_group is None:
            problems.append(f"protocol {name} missing from report")
            continue
        for key, base_value in base_group.items():
            if cur_group.get(key) != base_value:
                problems.append(
                    f"{name}.{key} changed "
                    f"{base_value} -> {cur_group.get(key)}"
                )
    if current.get("summary_sha256") != baseline.get("summary_sha256"):
        problems.append(
            "campaign summary hash diverged "
            f"{baseline.get('summary_sha256')} -> "
            f"{current.get('summary_sha256')} "
            "(the sweep is seeded; this is a behavior change)"
        )
    return problems


def render_campaign_report(report: dict) -> str:
    rows = []
    for name, group in report["protocols"].items():
        conv = group["repair_convergence_mean_s"]
        rows.append([
            name,
            "-" if conv is None else f"{conv * 1e3:.2f}",
            ",".join(
                f"{k}:{v}" for k, v in group["repair_modes"].items()
            ) or "-",
            group["control_messages"],
            f"{group['messages_delivered']}/{group['messages_sent']}",
            group["packets_lost"],
            group["packets_dropped"],
        ])
    table = format_table(
        ["Protocol", "Repair conv (ms)", "Modes", "Ctrl msgs",
         "Delivered", "Lost", "Dropped"],
        rows,
        title=(
            f"Campaign smoke sweep ({report['cells_ok']}"
            f"/{report['cells_total']} cells ok)"
        ),
    )
    return (
        f"{table}\n"
        f"summary sha256 {report['summary_sha256'][:16]}..., "
        f"sweep {report['wall_s']['sweep']:.2f}s"
    )


def compare_to_baseline(
    current: dict, baseline: dict, *, tolerance: float = DEFAULT_TOLERANCE
) -> list[str]:
    """Regression messages comparing ``current`` against ``baseline``.

    Wall time is compared as the machine-normalized ratio
    ``incremental_reconfigure_s / cold_deploy_s`` — both halves ran on
    the same machine in the same process, so the ratio cancels absolute
    machine speed, and a regression means the *incremental path itself*
    got slower relative to the work it avoids. The ratio check applies
    only to scenarios whose cold deploy exceeds
    :data:`MIN_GATE_SECONDS` in both reports — smaller runs are noise.
    ``rules_pushed`` is a deterministic count and is compared
    absolutely on every scenario. Scenarios present in only one report
    are skipped (quick runs gate against a full baseline). An empty
    list means no regression.
    """
    problems: list[str] = []
    base_by_name = {
        s["scenario"]: s for s in baseline.get("scenarios", [])
    }
    for cur in current.get("scenarios", []):
        name = cur["scenario"]
        base = base_by_name.get(name)
        if base is None:
            continue
        if base["mode"] == "incremental" and cur["mode"] != "incremental":
            problems.append(
                f"{name}: reconfigure fell back to the cold path "
                "(baseline ran incrementally)"
            )
            continue
        base_ratio = base["incremental_reconfigure_s"] / base["cold_deploy_s"]
        cur_ratio = cur["incremental_reconfigure_s"] / cur["cold_deploy_s"]
        measurable = (
            base["cold_deploy_s"] >= MIN_GATE_SECONDS
            and cur["cold_deploy_s"] >= MIN_GATE_SECONDS
        )
        if measurable and cur_ratio > base_ratio * (1 + tolerance):
            problems.append(
                f"{name}: incremental/cold wall-time ratio regressed "
                f"{base_ratio:.3f} -> {cur_ratio:.3f} "
                f"(> {tolerance:.0%} over baseline)"
            )
        if cur["rules_pushed"] > base["rules_pushed"] * (1 + tolerance):
            problems.append(
                f"{name}: rules pushed regressed "
                f"{base['rules_pushed']} -> {cur['rules_pushed']} "
                f"(> {tolerance:.0%} over baseline)"
            )
        # scenarios that reconfigure incrementally must serve the warm
        # re-check from the partition cache (the incremental path seeds
        # it); zero hits means the warm path silently fell back to a
        # from-scratch partition. Old baselines predate the field, so
        # only gate when the current report carries it.
        warm_hits = cur.get("partition_cache_hits_warm")
        if (
            warm_hits == 0
            and cur["mode"] == "incremental"
        ):
            problems.append(
                f"{name}: warm re-check missed the partition cache "
                "(0 hits; incremental reconfigure should have seeded it)"
            )
    pc = current.get("partition_cache")
    if pc is not None and pc.get("hits", 0) == 0:
        problems.append(
            "partition cache saw zero hits across the whole suite — "
            "warm paths are not exercising it"
        )
    return problems


def render_report(report: dict) -> str:
    """Human-readable summary of one suite run."""
    rows = []
    for s in report["scenarios"]:
        rows.append([
            s["scenario"],
            f"{s['cold_deploy_s'] * 1e3:.1f}",
            f"{s['incremental_reconfigure_s'] * 1e3:.1f}",
            f"{s['speedup']:.1f}x",
            s["mode"],
            s["rules_pushed"],
            s["rules_unchanged"],
            f"{s['rule_cache_hit_rate']:.0%}",
        ])
    return format_table(
        ["Scenario", "Cold (ms)", "Incr (ms)", "Speedup", "Mode",
         "Pushed", "Unchanged", "Cache hit"],
        rows,
        title="Reconfiguration benchmark (1-link edit)",
    )


@dataclass(frozen=True)
class _SuiteImpl:
    """One suite's run/render/compare trio (uniform call shapes)."""

    run: Callable[..., dict]
    render: Callable[[dict], str]
    #: (current, baseline, tolerance=...) -> problem list; suites with
    #: exact gates ignore the tolerance
    compare: Callable[..., list]


_SUITE_IMPL: dict[str, _SuiteImpl] = {
    "reconfig": _SuiteImpl(
        run=lambda *, quick, repeats: run_suite(quick=quick, repeats=repeats),
        render=render_report,
        compare=lambda cur, base, *, tolerance: compare_to_baseline(
            cur, base, tolerance=tolerance
        ),
    ),
    "scale": _SuiteImpl(
        run=lambda *, quick, repeats: run_scale_suite(
            quick=quick, repeats=repeats
        ),
        render=render_scale_report,
        compare=lambda cur, base, *, tolerance: compare_scale_to_baseline(
            cur, base, tolerance=tolerance
        ),
    ),
    "churn": _SuiteImpl(
        run=lambda *, quick, repeats: run_churn_suite(
            quick=quick, repeats=repeats
        ),
        render=render_churn_report,
        compare=lambda cur, base, *, tolerance: compare_churn_to_baseline(
            cur, base
        ),
    ),
    "recovery": _SuiteImpl(
        run=lambda *, quick, repeats: run_recovery_suite(
            quick=quick, repeats=repeats
        ),
        render=render_recovery_report,
        compare=lambda cur, base, *, tolerance: compare_recovery_to_baseline(
            cur, base
        ),
    ),
    "multitenant": _SuiteImpl(
        run=lambda *, quick, repeats: run_multitenant_suite(repeats=repeats),
        render=render_multitenant_report,
        compare=lambda cur, base, *, tolerance: (
            compare_multitenant_to_baseline(cur, base)
        ),
    ),
    "engineer": _SuiteImpl(
        run=lambda *, quick, repeats: run_engineer_suite(
            quick=quick, repeats=repeats
        ),
        render=render_engineer_report,
        compare=lambda cur, base, *, tolerance: compare_engineer_to_baseline(
            cur, base, tolerance=tolerance
        ),
    ),
    "campaign": _SuiteImpl(
        run=lambda *, quick, repeats: run_campaign_suite(
            quick=quick, repeats=repeats
        ),
        render=render_campaign_report,
        compare=lambda cur, base, *, tolerance: compare_campaign_to_baseline(
            cur, base
        ),
    ),
}

assert tuple(_SUITE_IMPL) == BENCH_SUITES  # keep the two lists aligned


def run_and_report(
    *,
    quick: bool,
    repeats: int,
    out: str | None,
    baseline: str | None,
    tolerance: float = DEFAULT_TOLERANCE,
    suite: str = "reconfig",
) -> int:
    """Run, write JSON, print the table, gate against a baseline."""
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
    try:
        impl = _SUITE_IMPL[suite]
    except KeyError:
        raise ValueError(
            f"unknown bench suite {suite!r}; choose from {BENCH_SUITES}"
        ) from None
    report = impl.run(quick=quick, repeats=repeats)
    # the CLI default out name belongs to the reconfig suite; give
    # every other suite its own artifact unless the user chose a path
    if out == "BENCH_reconfig.json" and suite != "reconfig":
        out = f"BENCH_{suite}.json"
    if out:
        Path(out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {out}")
    print(impl.render(report))
    if base is not None:
        problems = impl.compare(report, base, tolerance=tolerance)
        if problems:
            print(f"\nREGRESSION vs {baseline}:", file=sys.stderr)
            for p in problems:
                print(f"  - {p}", file=sys.stderr)
            return 1
        print(f"\nno regression vs {baseline} "
              f"(tolerance {tolerance:.0%})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/harness.py",
        description="SDT reconfiguration benchmark harness",
    )
    parser.add_argument("--quick", action="store_true",
                        help="CI subset of scenarios")
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                        help="wall-time repeats, min taken (default 3)")
    parser.add_argument("--out", default="BENCH_reconfig.json",
                        metavar="PATH", help="JSON report path")
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help="baseline JSON to gate against")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="allowed regression fraction (default 0.25)")
    parser.add_argument("--suite",
                        choices=list(BENCH_SUITES),
                        default="reconfig",
                        help="benchmark suite to run: "
                             f"{', '.join(BENCH_SUITES)} "
                             "(default reconfig)")
    args = parser.parse_args(argv)
    return run_and_report(
        quick=args.quick,
        repeats=args.repeats,
        out=args.out,
        baseline=args.baseline,
        tolerance=args.tolerance,
        suite=args.suite,
    )
