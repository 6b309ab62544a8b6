"""The benchmark's vocabulary: workloads and metrics, by name.

``BENCHMARK.json`` at the repository root is the machine-readable copy
of this file (``tests/test_perf_ledger.py`` keeps the two equal).

Three metric groups:

* :data:`END_TO_END` — what every workload reports from an untraced
  run. The driver contract wants one list that applies to all
  workloads, so these are the four a user of any of them sees: set-up
  time, the operation's wall time and the work completed per second
  (both from the quietest repeats, see ``ledger.py``), and peak memory.
* :data:`WORKLOAD_END_TO_END` — end-to-end figures that only some
  workloads have (events/s per simulator arm, session latencies, the
  modeled deployment time, fidelity deviations). They are measured
  untraced and carry a bound that ``--repeat-check`` enforces, but sit
  under ``per_layer`` in ``BENCHMARK.json`` because a workload they do
  not apply to reports 0 for them.
* :data:`PER_LAYER` — single-layer times, counts and ratios from the
  traced run; the prefix is the module under ``src/repro/``.

``sim_s`` / ``sim_Bps`` mark *simulated* quantities (they repeat
exactly); ``s`` is always host time.
"""

from __future__ import annotations

from typing import NamedTuple


#: host seconds one driver run measures (``--seconds``)
RUN_SECONDS = 25


class Workload(NamedTuple):
    name: str
    why: str
    #: listed in ``BENCHMARK.json``. The driver's time cap pays for 4
    #: workloads at a run length whose minima hold still on a shared
    #: host, not for 6; the other two run from ``run.py`` alone
    gated: bool = True


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: share of the reference value by which the metric may get worse
    #: before it counts as a regression (None: no bound, per-layer)
    bound: float | None = None


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "deploy_lossy_k10",
        "Install-bound cold deploy (32,500 rules, custom/shortest-path/lossy): "
        "RuleSet.mods + transaction commit dominate, Deadlock Avoidance is skipped",
    ),
    Workload(
        "deploy_lossless_k10",
        "Routing-bound cold deploy on the default user path (auto up/down routing "
        "+ Deadlock Avoidance, 32,500 rules): the mirror image of deploy_lossy_k10",
        gated=False,
    ),
    Workload(
        "reconfig_edits_k8",
        "The paper's headline operation: seeded 1-link incremental edits on a live "
        "fat-tree k=8 (diff, partition extend, delta projection, rule cache, strict deletes)",
    ),
    Workload(
        "eval_alltoall_ft4",
        "Table IV cell (fat-tree k=4, 16 ranks, IMB all-to-all 128 KiB) through the full, "
        "flit-simulator and SDT arms: packet-engine-bound, lossless and PFC-quiet",
    ),
    Workload(
        "eval_incast_chain8",
        "Fig. 12 7-to-1 incast on chain-8, RoCE (PFC+ECN) and TCP (lossy) on both arms: the "
        "same packet engine under pause/resume, ECN timers, drops and retransmits",
        gated=False,
    ),
    Workload(
        "service_churn",
        "Durable control-plane service with 6 resident tenants and 2 closed-loop clients: the "
        "only workload where tenancy, scheduler, journal and forced snapshots do the work",
    ),
)

END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("op_wall_best_s", "s", "lower", 0.25),
    Metric("work_per_s", "1/s", "higher", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.15),
)

WORKLOAD_END_TO_END: tuple[Metric, ...] = (
    Metric("modeled_op_s", "sim_s", "lower", 0.0),
    Metric("full_events_per_s", "1/s", "higher", 0.25),
    Metric("sim_events_per_s", "1/s", "higher", 0.25),
    Metric("sdt_events_per_s", "1/s", "higher", 0.25),
    Metric("sdt_act_dev_pct", "%", "lower", 0.0),
    Metric("sdt_goodput_dev_pct", "%", "lower", 0.0),
    Metric("sessions_per_s", "1/s", "higher", 0.25),
    Metric("admit_p50_s", "s", "lower", 0.25),
    Metric("commit_p50_s", "s", "lower", 0.25),
    Metric("evict_p50_s", "s", "lower", 0.25),
)


def _layer(names: str, unit: str, better: str) -> tuple[Metric, ...]:
    return tuple(Metric(n, unit, better) for n in names.split())


PER_LAYER: tuple[Metric, ...] = (
    # median host seconds of the operation, contention included
    Metric("op_wall_p50_s", "s", "lower"),
    # host seconds: a layer's summed self time per operation, unless
    # the name says p50/p90/p99 or names one event (first deploy, recover)
    *_layer(
        "topology.build_s topology.diff_s hardware.build_cluster_s "
        "routing.routes_s routing.deadlock_s "
        "partition.partition_s partition.extend_s "
        "projection.project_s projection.delta_s "
        "rules.synthesize_s rules.materialize_s rules.split_delta_s "
        "openflow.stage_s openflow.stage_delta_s openflow.validate_s "
        "openflow.commit_s openflow.send_batch_s openflow.switch_add_batch_s "
        "openflow.table_add_batch_s openflow.remove_flows_s openflow.forward_s "
        "controller.first_deploy_s controller.reconfigure_p90_s core.deploy_s "
        "netsim.build_logical_s netsim.build_sdt_s "
        "mpi.run_full_s mpi.run_sim_s mpi.run_sdt_s testbed.route_usage_s "
        "tenancy.admit_s tenancy.isolation_verify_s "
        "service.sched_wait_p50_s service.commit_p99_s service.evict_p99_s "
        "service.http_roundtrip_p50_s "
        "recovery.snapshot_write_s recovery.journal_append_s recovery.recover_s",
        "s", "lower",
    ),
    # exact counts per operation (or per edit / per session where named)
    *_layer(
        "routing.route_entries partition.cut_links rules.rules rules.blocks "
        "openflow.flow_mods openflow.rules_pushed_per_edit "
        "openflow.forward_calls openflow.lookup_calls "
        "netsim.events_full netsim.events_sim netsim.events_sdt "
        "netsim.schedule_calls netsim.enqueue_calls "
        "netsim.drops_full netsim.drops_sdt "
        "tenancy.isolation_verify_calls "
        "recovery.snapshot_writes recovery.snapshot_bytes "
        "recovery.journal_records recovery.journal_bytes",
        "count", "lower",
    ),
    *_layer("openflow.rules_unchanged_per_edit", "count", "higher"),
    *_layer(
        "partition.cache_hit_ratio rules.cache_hit_ratio "
        "controller.incremental_ratio",
        "ratio", "higher",
    ),
    *_layer(
        "openflow.lookups_per_forward openflow.forward_share_sdt "
        "telemetry.tracer_on_overhead_ratio bench.trace_overhead_ratio",
        "ratio", "lower",
    ),
    # 1.0 means the traced stages account for the whole untraced op
    Metric("controller.ledger_coverage", "ratio", "higher"),
    Metric("controller.rules_per_s", "1/s", "higher"),
    *_layer(
        "netsim.us_per_event_full netsim.us_per_event_sim "
        "netsim.us_per_event_sdt",
        "us", "lower",
    ),
    *_layer(
        "netsim.roce_full_events_per_s netsim.roce_sdt_events_per_s "
        "netsim.tcp_full_events_per_s netsim.tcp_sdt_events_per_s",
        "1/s", "higher",
    ),
    *_layer("netsim.goodput_full_Bps netsim.goodput_sdt_Bps", "sim_Bps", "higher"),
    Metric("netsim.tcp_goodput_dev_pct", "%", "lower"),
    *_layer("mpi.act_full_s mpi.act_sim_s mpi.act_sdt_s", "sim_s", "lower"),
)

#: every metric by name (names are unique across the three groups)
BY_NAME: dict[str, Metric] = {
    m.name: m for m in (*END_TO_END, *WORKLOAD_END_TO_END, *PER_LAYER)
}


def manifest() -> dict:
    """The ``BENCHMARK.json`` document this catalogue stands for."""

    def entry(metric: Metric, *, bounded: bool) -> dict:
        row = {"name": metric.name, "unit": metric.unit, "better": metric.better}
        if bounded:
            row["bound"] = metric.bound
        return row

    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w.name, "why": w.why} for w in WORKLOADS if w.gated
        ],
        "end_to_end": [entry(m, bounded=True) for m in END_TO_END],
        "per_layer": [
            entry(m, bounded=False)
            for m in (*WORKLOAD_END_TO_END, *PER_LAYER)
        ],
    }
