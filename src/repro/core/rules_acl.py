"""Single-table (ACL-style) rule synthesis — §VII-B switch generality.

The paper notes TP needs only (1) loopback-friendly ports and (2)
5-tuple-ish matching — e.g. "switches supporting extended ACL tables
are also suitable". Such switches have no multi-table pipeline and no
metadata register, so the sub-switch scoping that SDT's table-0 tag
provides must be *inlined*: one rule per (ingress port, destination
[, VC]) instead of per (sub-switch, destination [, VC]).

Functionally identical forwarding; the cost is entry inflation by
roughly the sub-switch radix (each logical switch's rules replicate for
each of its ports). The ``test_ablation_acl`` benchmark quantifies the
gap — this is also what the §VII-C remark about "merging entries"
trades against.
"""

from __future__ import annotations

from repro.core.projection.base import ProjectionResult
from repro.openflow.actions import ApplyActions, Output, SetQueue, SetVC
from repro.openflow.channel import FlowMod
from repro.openflow.match import Match
from repro.routing.table import RouteTable

ACL_TABLE = 0
PRIORITY_ACL_EXACT = 60
PRIORITY_ACL_WILD = 50


def synthesize_acl_rules(
    projection: ProjectionResult,
    routes: RouteTable,
    *,
    cookie: int = 1,
) -> dict[str, list[FlowMod]]:
    """Compile to a single flat ACL table: (in_port, dst[, vc]) rules,
    as FlowMods per physical switch."""
    rules: dict[str, list[FlowMod]] = {}

    for sw, dst, in_vc, hop in routes.entries():
        sub = projection.subswitches[sw]
        if dst not in projection.host_map or hop.port.index not in sub.ports:
            continue  # pruned
        phys_out = sub.phys_port_of(hop.port)
        phys_dst = projection.host_map[dst]

        actions: list = []
        if in_vc is None:
            priority = PRIORITY_ACL_WILD
            if hop.vc != 0:
                actions.append(SetVC(hop.vc))
        else:
            priority = PRIORITY_ACL_EXACT
            if hop.vc != in_vc:
                actions.append(SetVC(hop.vc))
        actions.append(SetQueue(hop.vc))
        actions.append(Output(phys_out.port))

        # inline the sub-switch scope: one rule per member ingress port
        for _idx, phys_in in sorted(sub.ports.items()):
            if phys_in.port == phys_out.port:
                continue  # a port never forwards back out of itself
            match = Match(
                in_port=phys_in.port,
                dst=phys_dst,
                vc=in_vc,
            )
            rules.setdefault(phys_out.switch, []).append(
                FlowMod(
                    table_id=ACL_TABLE,
                    priority=priority,
                    match=match,
                    instructions=(ApplyActions(actions),),
                    cookie=cookie,
                ),
            )
    return rules
