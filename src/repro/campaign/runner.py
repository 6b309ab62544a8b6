"""Run one campaign cell: topology -> protocol -> traffic -> failure.

A cell's life, all in one process and all seeded from the cell id:

1. build the topology (attaching hosts to the highest-degree switches
   when the generator produced none, as the zoo WANs do);
2. instantiate the protocol plug-in, size its generated config, and
   converge initial routes;
3. drive ring traffic over the link-quality-impaired fabric and record
   ACT, deliveries, drops, and wire losses;
4. fail a seeded non-bridge switch link (``single-link`` /
   ``dual-link`` scenarios), let the protocol repair, and re-measure —
   the convergence report carries the protocol's simulated repair
   time;
5. emit a flat JSON-able record. Everything except ``wall_s`` is a
   pure function of the cell seed, which is what makes ``--workers 1``
   and ``--workers 8`` reports bit-identical.
"""

from __future__ import annotations

import time

from repro.campaign.spec import CampaignCell
from repro.core.controller.config import TopologyConfig
from repro.netsim.linkquality import LinkQualityProfile
from repro.netsim.network import NetworkConfig, build_logical_network
from repro.netsim.transport import RoceTransport
from repro.routing.protocols import protocol
from repro.routing.protocols.precomputed import modeled_push_time
from repro.routing.table import RouteTable
from repro.topology.graph import Topology, bridges
from repro.util.errors import RoutingError
from repro.util.rng import make_rng

#: runaway guard per traffic phase; generous (a smoke cell uses ~50k)
MAX_EVENTS = 5_000_000


def build_cell_topology(cell: CampaignCell) -> tuple[Topology, list[str]]:
    """Materialize the cell's topology; ensure it has traffic hosts."""
    tconf = TopologyConfig(
        cell.topology["kind"], dict(cell.topology.get("params", {}))
    )
    topo = tconf.build()
    if not topo.hosts:
        want = int(cell.traffic["hosts"])
        anchors = sorted(
            topo.switches, key=lambda s: (-topo.radix(s), s)
        )[:want]
        for i, switch in enumerate(anchors):
            host = topo.add_host(f"c{i}")
            topo.connect(host, switch)
    hosts = sorted(topo.hosts)[: int(cell.traffic["hosts"])]
    if len(hosts) < 2:
        raise RoutingError(
            f"cell {cell.cell_id!r}: topology has <2 hosts for traffic"
        )
    return topo, hosts


def pick_failed_links(
    cell: CampaignCell, topology: Topology, count: int
) -> list[int]:
    """Seeded choice of ``count`` non-bridge switch links (failing a
    bridge would partition the WAN — a different experiment)."""
    rng = make_rng(cell.seed, "failure")
    failed: list[int] = []
    for _ in range(count):
        cut = {
            frozenset(edge) for edge in bridges(topology.switch_neighbors(failed))
        }
        candidates = [
            link.index
            for link in topology.switch_links
            if link.index not in failed
            and frozenset(link.endpoints) not in cut
        ]
        if not candidates:
            break  # tree-like survivor: every remaining link is a bridge
        failed.append(candidates[int(rng.integers(0, len(candidates)))])
    return failed


def path_metrics(
    topology: Topology, routes: RouteTable, hosts: list[str]
) -> dict:
    """Reachability / path-shape metrics over the traffic host pairs
    (the 2107.02932-style behaviour-trend view: how many pairs still
    route, how long the paths got, how many links they lean on)."""
    reachable = 0
    total_hops = 0
    links_used: set[tuple[str, str]] = set()
    pairs = 0
    for src in hosts:
        for dst in hosts:
            if src == dst:
                continue
            pairs += 1
            try:
                path = routes.trace(src, dst)
            except RoutingError:
                continue
            reachable += 1
            total_hops += len(path) - 1
            for a, b in zip(path, path[1:]):
                links_used.add((a, b) if a <= b else (b, a))
    return {
        "pairs": pairs,
        "reachable_pairs": reachable,
        "total_hops": total_hops,
        "links_used": len(links_used),
    }


def run_traffic(
    topology: Topology,
    routes: RouteTable,
    profile: LinkQualityProfile,
    hosts: list[str],
    *,
    seed: int,
    nbytes: int,
) -> dict:
    """Ring traffic (h_i -> h_i+1) over the impaired fabric."""
    net = build_logical_network(
        topology,
        routes,
        NetworkConfig(
            pfc_enabled=profile.lossless,
            link_quality=None if profile.is_ideal else profile,
            seed=seed,
        ),
    )
    transports = {h: RoceTransport(net, h) for h in hosts}
    for i, src in enumerate(hosts):
        dst = hosts[(i + 1) % len(hosts)]
        if routes.has_route(topology.host_switch(src), dst):
            transports[src].send(dst, nbytes)
    act = net.sim.run(max_events=MAX_EVENTS)
    return {
        "act": act,
        "messages_sent": len(hosts),
        "messages_delivered": sum(
            t.messages_delivered for t in transports.values()
        ),
        "bytes_received": sum(
            t.bytes_received for t in transports.values()
        ),
        "packets_dropped": net.total_drops(),
        "packets_lost": net.total_lost(),
        "events": net.sim.events_processed,
    }


def run_cell(cell: CampaignCell) -> dict:
    """Execute one cell; returns its (JSON-able) result record."""
    started = time.monotonic()
    topo, hosts = build_cell_topology(cell)
    profile = cell.quality_profile()
    proto = protocol(cell.protocol, seed=cell.seed)

    record: dict = {
        "cell": cell.cell_id,
        "index": cell.index,
        "status": "ok",
        "topology": topo.name,
        "switches": len(topo.switches),
        "links": len(topo.links),
        "protocol": cell.protocol,
        "quality": profile.name,
        "failure": cell.failure,
        "seed": cell.seed,
        "config": proto.config_summary(topo),
    }

    initial = proto.initial_routes(topo)
    deploy_time, flow_mods = modeled_push_time(initial.routes)
    record["initial"] = {
        "convergence": initial.convergence.to_dict(),
        "routes": len(initial.routes),
        "deployment_time": deploy_time,
        "flow_mods": flow_mods,
        "paths": path_metrics(topo, initial.routes, hosts),
        "traffic": run_traffic(
            topo, initial.routes, profile, hosts,
            seed=cell.seed, nbytes=int(cell.traffic["bytes"]),
        ),
    }

    if cell.failure != "none":
        count = 2 if cell.failure == "dual-link" else 1
        failed = pick_failed_links(cell, topo, count)
        record["failed_links"] = [
            "{}--{}".format(*sorted(topo.links[i].endpoints))
            for i in failed
        ]
        if failed:
            repaired = proto.repair_routes(topo, set(failed))
            record["repair"] = {
                "convergence": repaired.convergence.to_dict(),
                "routes": len(repaired.routes),
                "paths": path_metrics(topo, repaired.routes, hosts),
                "traffic": run_traffic(
                    topo, repaired.routes, profile, hosts,
                    seed=cell.seed + 1, nbytes=int(cell.traffic["bytes"]),
                ),
            }
        else:
            record["repair"] = None  # all-bridge topology: nothing to fail

    record["wall_s"] = round(time.monotonic() - started, 6)
    return record
