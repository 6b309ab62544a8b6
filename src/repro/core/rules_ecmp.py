"""ECMP rule synthesis for Fat-Trees (SELECT groups).

The paper's fat-tree routing hashes each *destination* onto one uplink
(static spreading — that is what compiles to plain destination rules).
Real data centers use ECMP: hash each *flow* over all equivalent
uplinks. OpenFlow expresses that with SELECT groups, and so does our
substrate: table-1 rules point at a per-(sub-switch, uplink-set) group
whose buckets are the candidate ports; the switch hashes the 5-tuple.

This module synthesizes that deployment for a projected fat-tree from
the up*/down* candidates up/down routing hashes over
(:func:`repro.routing.strategies.fattree_candidates`; on a fat-tree
missing links, only uplinks that still lead to the destination): table
0 is the standard pipeline's classification, a single candidate stays a
plain destination rule, several go through a SELECT group. The result
is a plain ``{switch: [FlowMod]}`` mapping, the per-message form
``ControlTransaction.stage_rules`` accepts. A companion experiment
(``tests/core/test_ecmp.py``) shows flows spreading over cores and the
resulting ACT gain on adversarial traffic.
"""

from __future__ import annotations

from repro.core.columnar import (
    PRIORITY_ROUTE_WILD,
    ROUTE_TABLE,
    CompiledBlock,
    block_columns,
)
from repro.core.projection.base import ProjectionResult
from repro.openflow.actions import ApplyActions, Group, Output, SetQueue
from repro.openflow.channel import FlowMod
from repro.openflow.groups import Bucket, GroupEntry
from repro.openflow.match import Match
from repro.routing.strategies import fattree_candidates


def synthesize_ecmp(
    projection: ProjectionResult,
    *,
    cookie: int = 1,
    group_base: int = 1,
) -> tuple[dict[str, list[FlowMod]], dict[str, list[GroupEntry]]]:
    """Compile ECMP rules + SELECT groups for a projected fat-tree.

    Returns the FlowMods per physical switch and the group entries to
    install per physical switch (groups first — rules reference them).
    One group per (sub-switch, uplink port set); single-candidate hops
    stay plain Output rules.
    """
    topo = projection.topology
    groups: dict[str, list[GroupEntry]] = {}
    group_ids: dict[tuple[str, tuple[int, ...]], int] = {}
    next_group = group_base

    # table 0: the standard pipeline's classification rows
    mods: dict[str, list[FlowMod]] = {}
    for sw in topo.switches:
        block = CompiledBlock(
            *block_columns(projection.subswitches[sw], {}, ({}, {}), cookie)
        )
        for phys, mod in block.pairs():
            mods.setdefault(phys, []).append(mod)

    # table 1: groups where several equivalent uplinks exist
    for (sw, dst), nbs in fattree_candidates(topo).items():
        sub = projection.subswitches[sw]
        ports = [topo.link_between(sw, nb).port_on(sw) for nb in nbs]
        if dst not in projection.host_map or any(
            lp.index not in sub.ports for lp in ports
        ):
            continue  # pruned
        phys_ports = [sub.ports[lp.index].port for lp in ports]
        match = Match(metadata=sub.metadata_id, dst=projection.host_map[dst])
        if len(phys_ports) == 1:
            actions = (ApplyActions((SetQueue(0), Output(phys_ports[0]))),)
        else:
            key = (sub.phys_switch, tuple(sorted(phys_ports)))
            gid = group_ids.get(key)
            if gid is None:
                gid = next_group
                next_group += 1
                group_ids[key] = gid
                groups.setdefault(sub.phys_switch, []).append(
                    GroupEntry(
                        gid,
                        "select",
                        [Bucket((Output(p),)) for p in sorted(phys_ports)],
                    )
                )
            actions = (ApplyActions((SetQueue(0), Group(gid))),)
        mods.setdefault(sub.phys_switch, []).append(
            FlowMod(
                table_id=ROUTE_TABLE,
                priority=PRIORITY_ROUTE_WILD,
                match=match,
                instructions=actions,
                cookie=cookie,
            ),
        )
    return mods, groups


def install_ecmp(
    cluster, projection: ProjectionResult, *, cookie: int = 7777
) -> dict[str, list[FlowMod]]:
    """Install ECMP groups + rules on a cluster's switches directly.

    A substrate-level helper (the SDT controller's strategy registry
    stays destination-based; ECMP is offered for user experiments).
    Returns the installed FlowMods per physical switch for accounting.
    """
    mods, groups = synthesize_ecmp(projection, cookie=cookie)
    for phys, entries in groups.items():
        for entry in entries:
            cluster.switches[phys].add_group(entry)
    for phys, batch in mods.items():
        for m in batch:
            cluster.switches[phys].add_flow(
                m.table_id, m.priority, m.match, m.instructions,
                cookie=m.cookie,
            )
    return mods
