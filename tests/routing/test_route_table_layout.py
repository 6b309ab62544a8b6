"""The route table's per-switch layout, against the entries it holds.

A :class:`~repro.routing.table.RouteTable` keeps each switch's entries
in two maps — wildcards by destination, exact ones by (destination,
in-VC) — and its :meth:`~repro.routing.table.RouteTable.entries` order
as runs of one destination's nodes; rule synthesis reads a switch's
maps directly. Three properties guard that layout, on every family of
``test_strategy_tables_pinned`` (two-VC dragonfly, torus datelines and
BCube with forwarding hosts included) and on seeded random topologies
under shortest-path routing (``SDT_PROP_CASES`` of them):

(a) a copy rebuilt with ``set_hop`` in the table's own ``entries()``
    order equals it in ``entries()``, ``entries_at``, ``len``,
    ``next_hop`` and ``has_route``;
(b) ``synthesize_rules``' columns equal an entry-by-entry oracle — the
    compile loop the per-switch layout replaced — for a full
    projection, a pruned one (``active_hosts``) and one that leaves a
    hop's port without hardware;
(c) a ``repaired()`` copy and its parent write apart.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.core import SDTController, TopologyConfig, build_cluster_for
from repro.core.columnar import NO_VC
from repro.core.projection.base import PhysPort, SubSwitch
from repro.core.rules import synthesize_rules
from repro.hardware import SCALE_2048x10G
from repro.routing import shortest_path_routes
from repro.routing.table import Hop, RouteTable
from repro.testbed import select_nodes
from repro.util.errors import ProjectionError, RoutingError
from tests.proptools import prop_cases, random_topology, seeded_cases
from tests.routing.test_strategy_tables_pinned import FAMILIES

ROOT_SEED = 4949


def _tables():
    """(label, table): every pinned family under its strategy, then
    seeded random topologies under shortest-path."""
    for name, (build, strategy) in FAMILIES.items():
        yield name, strategy(build())
    for i, rng in seeded_cases(prop_cases(12), ROOT_SEED, "route-table-layout"):
        topo = random_topology(rng, min_switches=2, name=f"rand-{i}")
        yield f"rand-{i}", shortest_path_routes(topo)


def _by_node(table: RouteTable) -> dict[str, list]:
    """``entries()`` grouped by node, each group in ``entries()`` order."""
    out: dict[str, list] = {}
    for entry in table.entries():
        out.setdefault(entry[0], []).append(entry)
    return out


def _lookup(table: RouteTable, node: str, dst: str, vc: int) -> Hop | None:
    try:
        return table.next_hop(node, dst, vc)
    except RoutingError:
        return None


# ---------------------------------------------------------------------------
# (a) layout
# ---------------------------------------------------------------------------

def test_a_set_hop_copy_equals_the_table():
    for label, table in _tables():
        entries = list(table.entries())
        copy = RouteTable(table.topology, table.num_vcs, table.allow_host_forwarding)
        for sw, dst, in_vc, hop in entries:
            copy.set_hop(sw, dst, hop, in_vc=in_vc)
        assert list(copy.entries()) == entries, label
        assert len(copy) == len(table) == len(entries), label
        # the oracle: exact entries first, then the wildcard
        wild = {(sw, dst): hop for sw, dst, vc, hop in entries if vc is None}
        exact = {(sw, dst, vc): hop for sw, dst, vc, hop in entries if vc is not None}
        by_node = _by_node(table)
        topo = table.topology
        for node in topo.nodes:
            at = by_node.get(node, [])
            assert table.entries_at(node) == at, (label, node)
            assert copy.entries_at(node) == at, (label, node)
            for dst in topo.hosts:
                for vc in range(table.num_vcs):
                    want = exact.get((node, dst, vc)) or wild.get((node, dst))
                    where = (label, node, dst, vc)
                    assert _lookup(table, node, dst, vc) == want, where
                    assert _lookup(copy, node, dst, vc) == want, where
                    assert table.has_route(node, dst, vc) == (want is not None), where
                    assert copy.has_route(node, dst, vc) == (want is not None), where


# ---------------------------------------------------------------------------
# (b) synthesis against the entry-by-entry oracle
# ---------------------------------------------------------------------------

def _oracle_columns(sub, host_map, entries, cookie: int):
    """One sub-switch's columns, one entry at a time in ``entries``
    order: drop an entry whose destination or port got no hardware."""
    ports = sub.ports
    classify = sorted(ports.items())
    dsts, in_vcs, out_vcs, out_ports = [], [], [], []
    for _switch, dst, in_vc, hop in entries:
        phys_dst = host_map.get(dst)
        if phys_dst is None:
            continue
        phys_out = ports.get(hop.port.index)
        if phys_out is None:
            continue
        if hop.port.node != sub.logical_switch:
            raise ProjectionError(f"port {hop.port} is not on {sub.logical_switch!r}")
        dsts.append(phys_dst)
        in_vcs.append(NO_VC if in_vc is None else in_vc)
        out_vcs.append(hop.vc)
        out_ports.append(phys_out.port)
    return (
        sub.phys_switch, sub.metadata_id, cookie,
        tuple(pp.switch for _idx, pp in classify),
        tuple(pp.port for _idx, pp in classify),
        tuple(dsts), tuple(in_vcs), tuple(out_vcs), tuple(out_ports),
    )


def _check_synthesis(projection, table: RouteTable, label) -> None:
    cookie = 7
    by_node = _by_node(table)
    want = [
        _oracle_columns(
            projection.subswitches[sw], projection.host_map, by_node.get(sw, []), cookie
        )
        for sw in table.topology.switches
    ]
    got = synthesize_rules(projection, table, cookie=cookie).blocks
    assert [block.columns for block in got] == want, label


def _projection(topo, host_map=None, drop=frozenset()):
    """Every logical switch port on a physical port of its own, but the
    ``(switch, port index)`` pairs in ``drop``; the hosts at
    ``host_map``, every host by default. Built by hand, so that
    server-centric topologies, which the link projection refuses
    (multi-homed hosts), are compiled too."""
    subswitches = {}
    for i, sw in enumerate(topo.switches):
        phys = f"phys{i % 2}"
        subswitches[sw] = SubSwitch(sw, phys, i + 1, {
            port.index: PhysPort(phys, 100 * i + port.index + 1)
            for port in topo.ports_of(sw)
            if (sw, port.index) not in drop
        })
    if host_map is None:
        host_map = {h: f"10.{i // 250}.{i % 250}.1" for i, h in enumerate(topo.hosts)}
    return SimpleNamespace(topology=topo, subswitches=subswitches, host_map=host_map)


def test_b_synthesis_equals_the_entry_by_entry_oracle():
    for label, table in _tables():
        topo = table.topology
        full = _projection(topo)
        _check_synthesis(full, table, (label, "full"))
        # each switch's first wildcard and first exact hop lose their port
        drop = set()
        for sw in topo.switches:
            wild, exact = table.maps_at(sw)
            drop.update(
                (sw, hop.port.index) for hop in [*wild.values()][:1] + [*exact.values()][:1]
            )
        _check_synthesis(
            _projection(topo, drop=drop), table, (label, "ports without hardware")
        )
        active = select_nodes(topo, max(1, len(topo.hosts) // 3))
        _check_synthesis(
            _projection(topo, {h: full.host_map[h] for h in active}),
            table, (label, "pruned destinations"),
        )
        if table.allow_host_forwarding or len(topo.hosts) < 3:
            continue
        # what a deployment of the active hosts projects: pruned
        # destinations, and the ports no active route uses
        controller = SDTController(build_cluster_for([topo], 2, SCALE_2048x10G))
        pruned = controller.prepare(
            TopologyConfig.from_topology(topo), routes=table, active_hosts=active
        ).projection
        assert pruned.host_map.keys() < full.host_map.keys(), label
        _check_synthesis(pruned, table, (label, "active_hosts"))


# ---------------------------------------------------------------------------
# (c) isolation
# ---------------------------------------------------------------------------

def _moved(table: RouteTable, entry: tuple) -> tuple:
    """``entry`` leaving its node by the next port, on the same VC."""
    node, dst, in_vc, hop = entry
    ports = table.topology.ports_of(node)
    return node, dst, in_vc, Hop(ports[(hop.port.index + 1) % len(ports)], hop.vc)


def _write(table: RouteTable, entry: tuple) -> None:
    node, dst, in_vc, hop = entry
    table.set_hop(node, dst, hop, in_vc=in_vc)


def test_c_a_repaired_copy_and_its_parent_write_apart():
    for label, table in _tables():
        topo = table.topology
        entries = list(table.entries())
        # entries on three distinct nodes with a second port to move to
        picked: dict[str, tuple] = {}
        for entry in entries:
            if len(topo.ports_of(entry[0])) > 1:
                picked.setdefault(entry[0], entry)
        if len(picked) < 3:
            continue
        repaired, shared, parents = list(picked.values())[:3]

        node, dst, in_vc, _hop = repaired
        key = (node, dst) if in_vc is None else (node, dst, in_vc)
        copy = table.repaired(topo, {key: _moved(table, repaired)[3]})
        assert list(table.entries()) == entries, label
        mine = [_moved(table, e) if e is repaired else e for e in entries]
        assert list(copy.entries()) == mine, label

        # the copy writes to a node whose map the repair left shared
        _write(copy, _moved(table, shared))
        assert list(table.entries()) == entries, label
        mine = [_moved(table, e) if e is shared else e for e in mine]
        assert list(copy.entries()) == mine, label

        # the parent replaces an entry on a node both still share, and
        # adds one there (the other VC kind): the copy keeps its own
        _write(table, _moved(table, parents))
        node, dst, in_vc, hop = parents
        table.set_hop(node, dst, hop, in_vc=0 if in_vc is None else None)
        assert len(table) == len(entries) + 1, label
        assert list(copy.entries()) == mine, label
        assert len(copy) == len(entries), label
