"""ACL vs two-stage pipeline synthesis: identical forwarding behaviour.

The §VII-B single-table variant must make the same decision as the
metadata pipeline for every (ingress port, destination, VC) a deployed
topology can see — the entry counts differ (see the ablation
benchmark), the data plane must not.
"""

import pytest

from repro.core import build_cluster_for
from repro.core.projection import LinkProjection
from repro.core.rules import synthesize_rules
from repro.core.rules_acl import synthesize_acl_rules
from repro.hardware import OPENFLOW_128x100G
from repro.openflow import OpenFlowSwitch, PacketHeader
from repro.routing import routes_for
from repro.topology import chain, dragonfly, fat_tree, torus2d


def install(cluster_template, rules):
    """Fresh emulated switches with one ``{switch: [FlowMod]}`` rule
    mapping installed."""
    switches = {
        name: OpenFlowSwitch(name, sw.num_ports,
                             flow_table_capacity=sw.flow_table_capacity)
        for name, sw in cluster_template.switches.items()
    }
    for name, mods in rules.items():
        for m in mods:
            switches[name].add_flow(
                m.table_id, m.priority, m.match, m.instructions,
                cookie=m.cookie,
            )
    return switches


@pytest.mark.parametrize("build,nsw", [
    (lambda: chain(4), 1),
    (lambda: fat_tree(4), 2),
    (lambda: torus2d(4, 4), 2),
    (lambda: dragonfly(2, 3, 1), 2),
])
def test_acl_matches_pipeline(build, nsw):
    topo = build()
    routes = routes_for(topo)
    cluster = build_cluster_for([topo], nsw, OPENFLOW_128x100G)
    projection = LinkProjection(cluster).project(topo)

    pipeline = install(cluster, synthesize_rules(projection, routes).mods)
    acl = install(cluster, synthesize_acl_rules(projection, routes))

    # probe every reachable (ingress port, dst, vc) combination of the
    # projected topology
    probes = 0
    for sw in topo.switches:
        sub = projection.subswitches[sw]
        for _idx, phys_in in sorted(sub.ports.items()):
            for dst in topo.hosts:
                phys_dst = projection.host_map[dst]
                for vc in range(routes.num_vcs):
                    hdr = PacketHeader(src="probe", dst=phys_dst, vc=vc)
                    d_pipe = pipeline[phys_in.switch].forward(
                        phys_in.port, hdr, 64
                    )
                    d_acl = acl[phys_in.switch].forward(phys_in.port, hdr, 64)
                    probes += 1
                    if d_pipe.dropped:
                        # ACL inlining skips hairpin rules (a port never
                        # forwards back out of itself); both must drop
                        # or the ACL may drop a hairpin the pipeline
                        # would bounce — never the other way round
                        continue
                    if d_acl.dropped:
                        # acceptable only for the hairpin case
                        assert d_pipe.out_ports == (phys_in.port,), (
                            sw, phys_in, dst, vc,
                        )
                        continue
                    assert d_pipe.out_ports == d_acl.out_ports, (
                        sw, phys_in, dst, vc,
                    )
                    assert d_pipe.queue == d_acl.queue
                    assert d_pipe.vc == d_acl.vc
    assert probes >= 40  # chain-4 is the smallest case
