"""Command-line interface: ``python -m repro <command>``.

Commands mirror what an SDT operator does with the real controller:

* ``check``     — validate a topology config against an auto-sized rig
* ``deploy``    — project + install, report rules and deployment time
* ``run``       — deploy and execute a workload, report the ACT
* ``telemetry`` — scripted deploy/reconfigure/repair run with a full
  metrics summary (add ``--trace-out`` for the JSONL journal)
* ``engineer``  — demand-aware topology engineering (DESIGN.md §9):
  the monitor→optimize→reconfigure loop, one-shot (``--steps``) or
  continuous through the asyncio service (``--watch``)
* ``serve``     — run a multi-tenant scenario through the testbed
  service (admission, fair-share scheduling, isolation verification);
  with ``--listen HOST:PORT`` it becomes the long-running HTTP
  control-plane service (DESIGN.md §8)
* ``client``    — one request against a running ``serve --listen``
  service (open/deploy/reconfigure/undeploy/evict/status/...)
* ``status``    — deploy a scenario and print per-switch TCAM
  occupancy/headroom and per-tenant usage (``--json`` for machines)
* ``recover``   — replay a crashed controller's state directory
  (snapshot + commit journal) and summarize the reconstructed state
* ``reconcile`` — deploy a config, optionally overwrite the switches
  from a recovered state directory, then audit + repair drift
* ``campaign``  — matrix sweeps (DESIGN.md §10): ``campaign run
  SPEC.json --workers N`` shards topologies x protocols x link
  quality x failures across a process pool; ``campaign report DIR``
  re-summarizes an existing results directory
* ``bench``     — the exact-count gate suites (``--suite`` lists them)
* ``tables``    — regenerate the paper's Table I / II / III as text
* ``zoo``       — the synthetic Internet Topology Zoo summary
* ``list``      — available topology kinds and workloads

``check``/``deploy``/``run``/``telemetry``/``engineer``/``reconcile``/
``serve`` accept ``--trace-out PATH``: a tracer is installed for the
command and its spans and events are written to ``PATH`` as JSONL
(schema: DESIGN.md §5).
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import build_table3, render_table1, render_table3
from repro.core import SDTController, TopologyConfig, build_cluster_for
from repro.costmodel import render_table2
from repro.hardware import EVAL_256x10G, H3C_S6861, SwitchSpec
from repro.mpi import MpiJob
from repro.netsim import build_sdt_network
from repro.telemetry import Tracer, install_tracer, registry, uninstall_tracer
from repro.testbed import select_nodes
from repro.topology import zoo_catalog, zoo_link_histogram
from repro.util import format_table, time_str
from repro.util.errors import ReproError
from repro.workloads import registered_workloads, workload

_SPECS: dict[str, SwitchSpec] = {
    "h3c": H3C_S6861,
    "eval256": EVAL_256x10G,
}


def _load_config(path: str) -> TopologyConfig:
    return TopologyConfig.load(path)


def _make_controller(config: TopologyConfig, args) -> SDTController:
    topology = config.build()
    cluster = build_cluster_for(
        [topology], args.switches, _SPECS[args.spec],
        spare_hosts=args.spare_hosts,
    )
    return SDTController(cluster)


def cmd_check(args) -> int:
    config = _load_config(args.config)
    controller = _make_controller(config, args)
    problems = controller.check(config)
    if problems:
        print("NOT deployable:")
        for p in problems:
            print(f"  - {p}")
        return 1
    print(f"deployable on {args.switches}x {_SPECS[args.spec].model}")
    return 0


def cmd_deploy(args) -> int:
    config = _load_config(args.config)
    controller = _make_controller(config, args)
    deployment = controller.deploy(config)
    stats = deployment.projection.stats()
    print(f"deployed {deployment.name}")
    print(f"  flow entries : {deployment.rules.count()} "
          f"({deployment.rules.per_switch_counts()})")
    print(f"  self-links   : {stats['self_links_used']}")
    print(f"  inter-switch : {stats['inter_switch_links_used']}")
    print(f"  host ports   : {stats['host_ports_used']}")
    print(f"  install time : {time_str(deployment.deployment_time)} (modeled)")
    return 0


def _coerce(value: str):
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value


def cmd_run(args) -> int:
    config = _load_config(args.config)
    controller = _make_controller(config, args)
    topology = config.build()
    hosts = select_nodes(topology, args.ranks)
    params = {}
    for kv in args.param:
        key, _, value = kv.partition("=")
        params[key] = _coerce(value)
    w = workload(args.workload, **params)
    deployment = controller.deploy(config, active_hosts=hosts)
    net = build_sdt_network(controller.cluster, deployment)
    addresses = {
        r: deployment.projection.host_map[hosts[r]] for r in range(len(hosts))
    }
    result = MpiJob(net, addresses, w.build(len(hosts))).run()
    print(f"{w.name} on {deployment.name} ({len(hosts)} ranks)")
    print(f"  ACT          : {time_str(result.act)}")
    print(f"  bytes sent   : {result.bytes_sent}")
    print(f"  sim events   : {result.events}")
    print(f"  deploy time  : {time_str(deployment.deployment_time)}")
    return 0


def cmd_telemetry(args) -> int:
    """Deploy → traffic → reconfigure → fail/restore, instrumented."""
    from repro.netsim import RoceTransport

    registry().reset()
    config = _load_config(args.config)
    controller = _make_controller(config, args)
    deployment = controller.deploy(config)
    controller.monitor.poll(0.0, deployment.projection)

    hosts = deployment.topology.hosts
    if len(hosts) >= 2:
        net = build_sdt_network(controller.cluster, deployment)
        src = deployment.projection.host_map[hosts[0]]
        dst = deployment.projection.host_map[hosts[-1]]
        tx = RoceTransport(net, src)
        RoceTransport(net, dst)
        tx.send(dst, args.bytes)
        end = net.sim.run()
        controller.monitor.poll(max(end, 1e-9), deployment.projection)

    deployment, reconf_time = controller.reconfigure(config)
    repair_time = None
    if deployment.topology.switch_links:
        link = deployment.topology.switch_links[0]
        try:
            repair_time = controller.fail_link(deployment, link.index)
            controller.restore_links(deployment)
        except ReproError as exc:
            print(f"link repair refused: {exc}")

    print(f"telemetry run on {deployment.name}")
    print(f"  deploy time  : {time_str(deployment.deployment_time)}")
    print(f"  reconfigure  : {time_str(reconf_time)}")
    if repair_time is not None:
        print(f"  link repair  : {time_str(repair_time)}")
    hot = controller.monitor.hottest_ports(5)
    if hot:
        print("  hottest ports:")
        for sw, port, util in hot:
            print(f"    {sw}:{port:<4d} {util:6.1%}")
    print()
    print(registry().summary_table())
    return 0


def _parse_traffic(specs: list[str], topology) -> list[tuple[str, str, int]]:
    flows: list[tuple[str, str, int]] = []
    for spec in specs:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ReproError(
                f"--traffic wants SRC:DST:BYTES, got {spec!r}"
            )
        src, dst, raw = parts
        for host in (src, dst):
            if not topology.is_host(host):
                raise ReproError(
                    f"--traffic host {host!r} is not in the topology"
                )
        try:
            nbytes = int(raw)
        except ValueError:
            raise ReproError(
                f"--traffic BYTES must be an integer, got {raw!r}"
            ) from None
        flows.append((src, dst, nbytes))
    return flows


def _densified(topology):
    """The same hosts on a complete switch graph — the planning
    envelope that reserves wiring for any link the engineer may add."""
    from repro.topology.graph import Topology

    dense = Topology(f"{topology.name}-headroom")
    switches = topology.switches
    for sw in switches:
        dense.add_switch(sw)
    for i, a in enumerate(switches):
        for b in switches[i + 1:]:
            dense.connect(a, b)
    for host in topology.hosts:
        dense.add_host(host)
        dense.connect(host, topology.host_switch(host))
    return dense


def _engineer_rig_cluster(topology, args):
    """A cluster for ``topology`` with headroom for engineered links;
    falls back to an exact-fit rig when the envelope doesn't fit."""
    spec = _SPECS[args.spec]
    try:
        return build_cluster_for(
            [topology, _densified(topology)], args.switches, spec,
            spare_hosts=args.spare_hosts,
        )
    except ReproError:
        print(
            "note: rig planned without link headroom "
            "(densified envelope does not fit); proposals needing new "
            "wiring will be vetoed",
            file=sys.stderr,
        )
        return build_cluster_for(
            [topology], args.switches, spec, spare_hosts=args.spare_hosts
        )


def _engineer_budget(topology, args):
    from repro.engineering import PortBudget

    if args.max_degree > 0:
        max_degree = args.max_degree
    else:
        switch_degree = max(
            (
                sum(1 for n in topology.neighbors(sw) if topology.is_switch(n))
                for sw in topology.switches
            ),
            default=0,
        )
        max_degree = max(4, switch_degree)
    spec = _SPECS[args.spec]
    wiring = (args.switches * spec.num_ports
              - topology.num_host_links) // 2
    return PortBudget(max_degree=max_degree, max_switch_links=wiring)


def _engineer_step_row(step) -> list:
    moves = ", ".join(
        f"{m.kind[0]}:{m.a}-{m.b}" for m in step.moves
    ) or "-"
    return [
        step.index,
        step.outcome,
        moves,
        f"{step.gain:.1%}",
        step.rules_pushed,
        f"{step.modeled_time * 1e3:.2f}",
    ]


def _print_engineer_steps(steps, json_out: str | None) -> None:
    import json as json_mod

    print(format_table(
        ["Step", "Outcome", "Moves", "Gain", "Pushed", "Modeled (ms)"],
        [_engineer_step_row(s) for s in steps],
        title="Engineering steps",
    ))
    applied = [s for s in steps if s.applied]
    print(
        f"applied {len(applied)}/{len(steps)} steps, "
        f"{sum(len(s.moves) for s in applied)} moves, "
        f"{sum(s.rules_pushed for s in applied)} rules pushed"
    )
    if json_out:
        from pathlib import Path

        Path(json_out).write_text(json_mod.dumps(
            [s.summary() for s in steps], indent=2
        ) + "\n")
        print(f"wrote {json_out}")


def cmd_engineer(args) -> int:
    """The monitor→optimize→reconfigure loop (DESIGN.md §9)."""
    from repro.engineering import EngineerParams, TopologyEngineer
    from repro.netsim import RoceTransport

    config = _load_config(args.config)
    topology = config.build()
    flows = _parse_traffic(args.traffic, topology)
    if not flows:
        print(
            "note: no --traffic flows given; the engineer will observe "
            "an idle network and hold every step",
            file=sys.stderr,
        )
    if args.watch:
        # the tenancy lease hands out host ports round-robin across
        # switches; wire enough spare ports that any placement of the
        # engineered topology finds its hosts
        args.spare_hosts = max(args.spare_hosts, len(topology.hosts))
    cluster = _engineer_rig_cluster(topology, args)
    budget = _engineer_budget(topology, args)
    params = EngineerParams(
        window=args.window,
        max_moves=args.max_moves,
        min_gain=args.min_gain,
        max_rules_pushed=args.rules_cap,
        cooldown_steps=args.cooldown,
    )

    clock = [0.0]

    def drive(controller, deployment) -> None:
        """One observation round: poll, replay the flows, poll."""
        controller.monitor.poll(clock[0], deployment.projection)
        if flows:
            net = build_sdt_network(controller.cluster, deployment)
            hm = deployment.projection.host_map
            for src, dst, nbytes in flows:
                RoceTransport(net, hm[dst])
                RoceTransport(net, hm[src]).send(hm[dst], nbytes)
            clock[0] += max(net.sim.run(), 1e-9)
        else:
            clock[0] += max(config.monitor_interval, 1e-9)
        controller.monitor.poll(clock[0], deployment.projection)

    if args.watch:
        steps = _engineer_watch(
            args, config, cluster, budget, params, drive
        )
    else:
        controller = SDTController(cluster)
        deployment = controller.deploy(config)
        engineer = TopologyEngineer(controller, deployment, budget, params)
        steps = []
        for _ in range(args.steps):
            drive(controller, engineer.deployment)
            steps.append(engineer.step())
    _print_engineer_steps(steps, args.json)
    return 0


def _engineer_watch(args, config, cluster, budget, params, drive):
    """Continuous mode: apply proposals through the asyncio
    control-plane service (DESIGN.md §8) instead of calling the
    controller directly, so engineering serializes with any other
    tenant operations the service is scheduling. Each applied step is
    a tenant ``reconfigure``: the same incremental edit the one-shot
    ``--steps`` mode applies."""
    import asyncio

    from repro.engineering import TopologyEngineer
    from repro.service.app import ControlPlaneService
    from repro.tenancy import TenantQuota

    topology = config.build()
    interval = (
        args.interval if args.interval is not None
        else config.monitor_interval
    )

    async def loop() -> list:
        # "fixed" placement matches the planner that wired the rig;
        # occupancy spreading is for multi-tenant pools, and a single-
        # tenant engineering session must project exactly where the
        # headroom was reserved
        service = ControlPlaneService(cluster, placement="fixed")
        await service.start()
        steps: list = []
        try:
            # a single-tenant engineering session leases every wired
            # host port, so projection is free to place hosts anywhere
            await service.open_session("engineer", TenantQuota(
                host_ports=max(1, len(cluster.wiring.host_ports)),
                tcam_share=1_000_000,
            ))
            deployment = await service.submit(
                "deploy", "engineer", config=config
            )
            controller = service.testbed.controller
            engineer = TopologyEngineer(
                controller, deployment, budget, params
            )
            rounds = 0
            while args.max_steps == 0 or rounds < args.max_steps:
                rounds += 1
                drive(controller, engineer.deployment)
                plan = engineer.plan()
                if plan.config is None:
                    step = engineer.finish(plan)
                else:
                    try:
                        dep = await service.submit(
                            "reconfigure", "engineer",
                            name=engineer.deployment.name,
                            config=plan.config,
                        )
                    except ReproError as exc:
                        step = engineer.finish(plan, error=exc)
                    else:
                        step = engineer.finish(plan, dep)
                steps.append(step)
                print(
                    f"step {step.index}: {step.outcome} "
                    f"moves={len(step.moves)} gain={step.gain:.1%} "
                    f"pushed={step.rules_pushed}",
                    file=sys.stderr,
                )
                if interval > 0:
                    await asyncio.sleep(interval)
        finally:
            await service.stop()
        return steps

    try:
        return asyncio.run(loop())
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        print("engineer watch interrupted", file=sys.stderr)
        return []


def _hostport(value: str) -> tuple[str, int]:
    host, sep, port = value.rpartition(":")
    if not sep or not host:
        raise ReproError(
            f"expected HOST:PORT, got {value!r} (use 127.0.0.1:0 for an "
            "ephemeral port)"
        )
    try:
        return host, int(port)
    except ValueError:
        raise ReproError(f"bad port in {value!r}") from None


def _serve_listen(args) -> int:
    """Long-running service mode: bind the HTTP control-plane API."""
    from repro.service.app import run_service
    from repro.tenancy import Scenario

    host, port = _hostport(args.listen)
    if args.scenario:
        # scenario file sizes the pool; its tenants are NOT admitted —
        # clients open their own sessions over the API
        cluster = Scenario.from_file(args.scenario).pool()
    else:
        from repro.hardware.cluster import PhysicalCluster

        cluster = PhysicalCluster.build(
            args.switches,
            _SPECS[args.spec],
            hosts_per_switch=args.hosts_per_switch,
            inter_links_per_pair=args.inter_links,
        )
    run_service(
        cluster,
        host=host,
        port=port,
        max_pending=args.max_pending,
        state_dir=args.state_dir,
        snapshot_every=args.snapshot_every,
    )
    return 0


def _serve_scenario(scenario) -> dict:
    """Replay a scenario through a fresh in-process control-plane
    service on its own pool; returns the run report."""
    import asyncio

    from repro.service.app import ControlPlaneService
    from repro.tenancy import serve_scenario

    async def run() -> dict:
        # every deploy is queued at once: bound the queue by the file,
        # not by the service default
        service = ControlPlaneService(
            scenario.pool(),
            max_pending=len(scenario.tenants),
        )
        await service.start()
        try:
            return await serve_scenario(service, scenario)
        finally:
            await service.stop()

    return asyncio.run(run())


def cmd_serve(args) -> int:
    """Run a multi-tenant scenario: admit every tenant, deploy their
    topologies through the fair-share scheduler, report the outcome.
    With ``--listen`` the command instead becomes a long-running
    HTTP control-plane service (see DESIGN.md §8)."""
    import json

    from repro.tenancy import Scenario

    if args.listen:
        return _serve_listen(args)
    if not args.scenario:
        raise ReproError("serve needs a scenario file (or --listen)")
    scenario = Scenario.from_file(args.scenario)
    report = _serve_scenario(scenario)
    print(f"served {len(scenario.tenants)} tenants on "
          f"{scenario.switches}x {scenario.spec.model}")
    for tenant, info in sorted(report["tenants"].items()):
        print(f"  {tenant:12s} {info['deployment']:16s} "
              f"{info['rules_installed']:5d} rules  "
              f"install {time_str(info['install_time'])}")
    for rej in report["rejected"]:
        print(f"  {rej['tenant']:12s} REJECTED ({rej['stage']}): "
              + "; ".join(rej["problems"]))
    if report.get("error"):
        # a partial run still flushes its report below
        print(f"  run aborted: {report['error']}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"report written: {args.json}")
    if report.get("error"):
        return 2
    return 1 if report["rejected"] else 0


def cmd_client(args) -> int:
    """One request against a running ``repro serve --listen`` service."""
    import json

    from repro.service.http import http_call

    host, port = _hostport(args.connect)
    method, path, payload = "GET", "", None
    action = args.action
    needs_tenant = action not in ("health", "status", "metrics", "shutdown")
    if needs_tenant and not args.tenant:
        raise ReproError(f"client {action} needs a TENANT argument")
    if action == "health":
        path = "/v1/healthz"
    elif action == "status":
        path = "/v1/status"
    elif action == "metrics":
        path = "/v1/metrics"
    elif action == "shutdown":
        method, path = "POST", "/v1/shutdown"
    elif action == "open":
        method, path = "POST", "/v1/sessions"
        payload = {
            "tenant": args.tenant,
            "quota": {
                "host_ports": args.host_ports,
                "tcam_share": args.tcam_share,
            },
        }
    elif action == "session":
        path = f"/v1/sessions/{args.tenant}"
    elif action in ("deploy", "reconfigure"):
        if not args.config:
            raise ReproError(f"client {action} needs --config PATH")
        with open(args.config) as fh:
            topology = json.load(fh)
        method = "POST"
        path = f"/v1/sessions/{args.tenant}/{action}"
        payload = {"topology": topology}
        if action == "reconfigure":
            if not args.name:
                raise ReproError("client reconfigure needs --name")
            payload["name"] = args.name
    elif action == "undeploy":
        if not args.name:
            raise ReproError("client undeploy needs --name")
        method = "POST"
        path = f"/v1/sessions/{args.tenant}/undeploy"
        payload = {"name": args.name}
    elif action in ("evict", "close"):
        method = "DELETE"
        path = f"/v1/sessions/{args.tenant}"
        if action == "close":
            path += "?mode=close"
    status, headers, body = http_call(
        host, port, method, path, payload, timeout=args.timeout
    )
    print(json.dumps(body, indent=2, sort_keys=True))
    if status == 429 and "retry-after" in headers:
        print(f"retry after {headers['retry-after']}s", file=sys.stderr)
    return 0 if 200 <= status < 300 else 1


def _print_status(status: dict) -> None:
    rows = []
    for name, info in status["switches"].items():
        rows.append([
            name,
            info["flow_entries"],
            info["flow_capacity"],
            info["flow_headroom"],
            info["host_ports"],
        ])
    print(format_table(
        ["Switch", "Entries", "Capacity", "Headroom", "Host ports"],
        rows,
        title="Pool occupancy",
    ))
    if status["tenants"]:
        print()
        rows = []
        for tenant, snap in status["tenants"].items():
            rows.append([
                tenant,
                snap["state"],
                f"{snap['host_ports_used']}/{snap['host_ports_leased']}",
                sum(snap["tcam_used"].values()),
                ", ".join(snap["deployments"]) or "-",
            ])
        print(format_table(
            ["Tenant", "State", "Hosts", "Entries", "Deployments"],
            rows,
            title="Tenants",
        ))


def cmd_status(args) -> int:
    """Deploy a scenario and print the live pool/tenant status."""
    import json

    from repro.tenancy import Scenario

    report = _serve_scenario(Scenario.from_file(args.scenario))
    if report.get("error"):
        raise ReproError(f"scenario aborted mid-run: {report['error']}")
    if args.json:
        print(json.dumps(report["status"], indent=2, sort_keys=True))
    else:
        _print_status(report["status"])
    return 0


def cmd_recover(args) -> int:
    """Replay a state directory (no switch is touched) and summarize."""
    import json

    from repro.recovery import load_recovery

    result = load_recovery(args.state_dir, num_tables=args.tables)
    summary = result.summary()
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(f"recovered from {args.state_dir}")
    print(f"  snapshot lsn : {summary['snapshot_lsn']}")
    print(f"  journal recs : {summary['journal_records']}")
    print(f"  replayed txns: {summary['replayed']}")
    print(f"  skipped txns : {summary['skipped']} "
          "(pre-snapshot, aborted, or unresolved)")
    print(f"  flow entries : {summary['entries']}")
    for name, n in sorted(summary["per_switch"].items()):
        print(f"    {name:12s} {n}")
    return 0


def cmd_reconcile(args) -> int:
    """Deploy, optionally restore switch state from a recovered
    journal, then audit hardware against intent and repair drift."""
    import json

    config = _load_config(args.config)
    controller = _make_controller(config, args)
    controller.deploy(config)
    if args.state_dir:
        from repro.recovery import recover

        result = recover(args.state_dir, cluster=controller.cluster)
        print(f"restored {result.entries} entries from {args.state_dir}",
              file=sys.stderr)
    report = controller.reconcile(dry_run=args.dry_run)
    summary = report.summary()
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        verdict = "clean" if report.clean else "drift"
        mode = " (dry run)" if report.dry_run else ""
        print(f"reconcile: {verdict}{mode}")
        print(f"  missing    : {report.missing}")
        print(f"  orphaned   : {report.orphaned}")
        print(f"  modified   : {report.modified}")
        print(f"  duplicates : {report.duplicates}")
        if report.skipped_cookies:
            print(f"  skipped    : cookies {list(report.skipped_cookies)} "
                  f"(deployments with overrides)")
        if report.drifted_switches:
            print(f"  switches   : {', '.join(report.drifted_switches)}")
        if not report.dry_run and not report.clean:
            print(f"  repair time: {time_str(report.modeled_time)} (modeled)")
    return 0 if (report.clean or not args.dry_run) else 1


def cmd_bench(args) -> int:
    from repro.bench import run_and_report

    return run_and_report(
        suite=args.suite,
        quick=args.quick,
        out=args.out,
        baseline=args.baseline,
    )


def cmd_campaign_run(args) -> int:
    from repro.campaign import render_report, run_campaign
    from repro.campaign.spec import CampaignSpec

    spec = CampaignSpec.load(args.spec)

    def progress(done: int, total: int, record: dict) -> None:
        print(f"[{done}/{total}] {record['cell']}: {record['status']}")

    report = run_campaign(
        spec,
        args.out,
        workers=args.workers,
        limit=args.limit,
        progress=None if args.quiet else progress,
    )
    print()
    print(render_report(report))
    print(f"\nresults: {args.out}/results.jsonl  "
          f"report: {args.out}/report.json")
    return 0


def cmd_campaign_report(args) -> int:
    import json as _json

    from repro.campaign import render_report, resummarize

    report = resummarize(args.dir)
    if args.json:
        print(_json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_report(report))
    return 0


def cmd_tables(args) -> int:
    which = args.table
    if which in ("1", "all"):
        print(render_table1())
        print()
    if which in ("2", "all"):
        print(render_table2())
        print()
    if which in ("3", "all"):
        print(render_table3(build_table3()))
    return 0


def cmd_zoo(_args) -> int:
    hist = zoo_link_histogram()
    print(format_table(
        ["Band", "Topologies"],
        [[k, v] for k, v in hist.items()],
        title="Synthetic Internet Topology Zoo",
    ))
    big = sorted(zoo_catalog(), key=lambda e: -e.num_links)[:8]
    print("\nlargest entries:")
    for e in big:
        print(f"  {e.name:12s} {e.num_switches:4d} switches "
              f"{e.num_links:4d} links")
    return 0


def cmd_list(_args) -> int:
    from repro.core.controller.config import _GENERATORS

    print("topology kinds :", ", ".join(sorted(_GENERATORS)), "+ custom")
    print("workloads      :", ", ".join(registered_workloads()))
    print("switch specs   :", ", ".join(
        f"{k} ({v.model})" for k, v in _SPECS.items()
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SDT (CLUSTER 2023) reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p) -> None:
        p.add_argument("--switches", type=int, default=3,
                       help="physical switches in the rig (default 3)")
        p.add_argument("--spec", choices=sorted(_SPECS), default="eval256",
                       help="switch model (default eval256)")
        p.add_argument("--spare-hosts", type=int, default=0)
        p.add_argument("--trace-out", metavar="PATH", default=None,
                       help="write the run's telemetry trace (JSONL)")

    p = sub.add_parser("check", help="validate a topology config")
    p.add_argument("config")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("deploy", help="project + install a topology")
    p.add_argument("config")
    common(p)
    p.set_defaults(fn=cmd_deploy)

    p = sub.add_parser("run", help="deploy and run a workload")
    p.add_argument("config")
    p.add_argument("--workload", default="imb-alltoall",
                   choices=registered_workloads())
    p.add_argument("--ranks", type=int, default=8)
    p.add_argument("--param", action="append", default=[],
                   metavar="KEY=VALUE",
                   help="workload parameter override (repeatable)")
    common(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser(
        "telemetry",
        help="instrumented deploy/reconfigure/repair run + metrics summary",
    )
    p.add_argument("config")
    p.add_argument("--bytes", type=int, default=1024 * 1024,
                   help="traffic volume for the monitored transfer")
    common(p)
    p.set_defaults(fn=cmd_telemetry)

    p = sub.add_parser(
        "engineer",
        help="demand-aware topology engineering: the monitor->optimize->"
             "reconfigure loop (one-shot --steps or continuous --watch)",
    )
    p.add_argument("config")
    common(p)
    p.add_argument("--steps", type=int, default=1,
                   help="one-shot engineering rounds (default 1)")
    p.add_argument("--watch", action="store_true",
                   help="continuous loop through the asyncio control-"
                        "plane service instead of one-shot steps")
    p.add_argument("--interval", type=float, default=None,
                   help="watch poll period in seconds (default: the "
                        "config's monitor_interval)")
    p.add_argument("--max-steps", type=int, default=0,
                   help="watch: stop after N rounds (0 = run until "
                        "interrupted)")
    p.add_argument("--traffic", action="append", default=[],
                   metavar="SRC:DST:BYTES",
                   help="synthetic transfer replayed before every step "
                        "(repeatable)")
    p.add_argument("--window", type=float, default=None,
                   help="demand history window in seconds (default: "
                        "full ring buffer)")
    p.add_argument("--min-gain", type=float, default=0.05,
                   help="hysteresis: min relative objective gain to "
                        "act (default 0.05)")
    p.add_argument("--max-moves", type=int, default=4,
                   help="link edits per step (default 4)")
    p.add_argument("--rules-cap", type=int, default=0,
                   help="measured per-step rules-pushed cap "
                        "(0 = uncapped)")
    p.add_argument("--max-degree", type=int, default=0,
                   help="per-switch link budget (0 = auto)")
    p.add_argument("--cooldown", type=int, default=0,
                   help="observation rounds to hold after an applied "
                        "step (default 0)")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="write per-step records as JSON")
    p.set_defaults(fn=cmd_engineer)

    p = sub.add_parser(
        "serve",
        help="run a multi-tenant scenario through the testbed service, "
             "or (--listen) a long-running HTTP control-plane service",
    )
    p.add_argument("scenario", nargs="?", default=None,
                   help="scenario JSON (see examples/); with --listen it "
                        "only sizes the pool")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="write the full run report as JSON (flushed even "
                        "when the run aborts mid-scenario)")
    p.add_argument("--trace-out", metavar="PATH", default=None,
                   help="write the run's telemetry trace (JSONL)")
    p.add_argument("--listen", metavar="HOST:PORT", default=None,
                   help="serve the HTTP control-plane API (port 0 = "
                        "ephemeral; the bound port is printed)")
    p.add_argument("--switches", type=int, default=3,
                   help="pool size without a scenario file (default 3)")
    p.add_argument("--spec", choices=sorted(_SPECS), default="eval256",
                   help="switch model without a scenario file")
    p.add_argument("--hosts-per-switch", type=int, default=8,
                   help="host ports per switch without a scenario file")
    p.add_argument("--inter-links", type=int, default=2,
                   help="inter-switch links per pair without a scenario")
    p.add_argument("--state-dir", metavar="DIR", default=None,
                   help="durable state directory (snapshot + journal); "
                        "restart recovers sessions and flow state")
    p.add_argument("--max-pending", type=int, default=64,
                   help="bounded queue size; over it requests get 429")
    p.add_argument("--snapshot-every", type=int, default=8,
                   help="snapshot cadence in committed transactions")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "client",
        help="talk to a running `repro serve --listen` service",
    )
    p.add_argument("--connect", metavar="HOST:PORT", required=True,
                   help="service address (from the serve banner)")
    p.add_argument("action",
                   choices=["health", "status", "metrics", "open",
                            "session", "deploy", "reconfigure",
                            "undeploy", "evict", "close", "shutdown"])
    p.add_argument("tenant", nargs="?", default=None,
                   help="tenant id (session-scoped actions)")
    p.add_argument("--config", metavar="PATH", default=None,
                   help="topology config JSON (deploy/reconfigure)")
    p.add_argument("--name", default=None,
                   help="deployment name (reconfigure/undeploy)")
    p.add_argument("--host-ports", type=int, default=8,
                   help="quota: host ports to lease (open)")
    p.add_argument("--tcam-share", type=int, default=1024,
                   help="quota: flow-table entries (open)")
    p.add_argument("--timeout", type=float, default=30.0)
    p.set_defaults(fn=cmd_client)

    p = sub.add_parser(
        "status",
        help="deploy a scenario and print pool/tenant occupancy",
    )
    p.add_argument("scenario", help="scenario JSON (see examples/)")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON instead of tables")
    p.set_defaults(fn=cmd_status)

    p = sub.add_parser(
        "recover",
        help="replay a controller state directory (snapshot + journal)",
    )
    p.add_argument("state_dir", help="directory holding snapshot-*.json "
                                     "and journal.jsonl")
    p.add_argument("--tables", type=int, default=4,
                   help="flow tables per switch (default 4)")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON instead of text")
    p.set_defaults(fn=cmd_recover)

    p = sub.add_parser(
        "reconcile",
        help="audit switch state against controller intent, repair drift",
    )
    p.add_argument("config")
    p.add_argument("--state-dir", default=None, metavar="DIR",
                   help="restore switch state from a recovered journal "
                        "before auditing")
    p.add_argument("--dry-run", action="store_true",
                   help="report drift without repairing (exit 1 on drift)")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON instead of text")
    common(p)
    p.set_defaults(fn=cmd_reconcile)

    from repro.bench import BENCH_SUITES  # the one suite list (no drift)

    p = sub.add_parser(
        "bench",
        help="deterministic correctness gates: " + ", ".join(BENCH_SUITES),
        description="Run one suite and gate its counts and modeled "
                    "quantities exactly against a committed baseline. "
                    "Wall-clock fields are informational; speed is "
                    "judged by benchmarks/perf/ (BENCHMARK.json).",
    )
    p.add_argument("--suite",
                   choices=list(BENCH_SUITES),
                   default="reconfig",
                   help="suite to run: "
                        f"{', '.join(BENCH_SUITES)} (default reconfig)")
    p.add_argument("--quick", action="store_true",
                   help="CI subset of the suite's cases")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="JSON report path (default BENCH_<suite>.json)")
    p.add_argument("--baseline", default=None, metavar="PATH",
                   help="baseline JSON to gate against (exit 1 on any "
                        "mismatch)")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser(
        "campaign",
        help="matrix sweeps: topologies x protocols x link quality "
             "x failures (DESIGN.md §10)",
    )
    csub = p.add_subparsers(dest="campaign_cmd", required=True)

    pc = csub.add_parser(
        "run", help="expand a campaign spec and run every cell"
    )
    pc.add_argument("spec", help="campaign spec JSON "
                                 "(e.g. examples/zoo_campaign.json)")
    pc.add_argument("--out", default="campaign-out", metavar="DIR",
                    help="results directory (default campaign-out)")
    pc.add_argument("--workers", type=int, default=None, metavar="N",
                    help="worker processes (default: run inline)")
    pc.add_argument("--limit", type=int, default=None, metavar="N",
                    help="run only the first N cells")
    pc.add_argument("--quiet", action="store_true",
                    help="suppress per-cell progress lines")
    pc.set_defaults(fn=cmd_campaign_run)

    pc = csub.add_parser(
        "report", help="re-summarize an existing results directory"
    )
    pc.add_argument("dir", help="results directory from 'campaign run'")
    pc.add_argument("--json", action="store_true",
                    help="print the report as JSON instead of a table")
    pc.set_defaults(fn=cmd_campaign_report)

    p = sub.add_parser("tables", help="regenerate paper tables")
    p.add_argument("table", choices=["1", "2", "3", "all"], default="all",
                   nargs="?")
    p.set_defaults(fn=cmd_tables)

    p = sub.add_parser("zoo", help="synthetic Topology Zoo summary")
    p.set_defaults(fn=cmd_zoo)

    p = sub.add_parser("list", help="available kinds/workloads/specs")
    p.set_defaults(fn=cmd_list)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    trace_out = getattr(args, "trace_out", None)
    tracer = install_tracer(Tracer()) if trace_out else None
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # output piped into head etc.
        return 0
    finally:
        if tracer is not None:
            uninstall_tracer()
            records = tracer.dump(trace_out)
            print(f"trace written: {trace_out} ({records} records)",
                  file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
