"""The graph algorithms on ``Topology``'s adjacency against networkx.

networkx is a test-only oracle here: the Deadlock Avoidance check
(:func:`~repro.routing.channel_dependency_graph`,
:func:`~repro.routing.find_cycle`), the bridge search behind
:func:`~repro.topology.diff.removable_switch_links` and
:meth:`~repro.topology.Topology.switch_neighbors` must agree with it on
seeded random route tables and topologies, on every generator topology
and on every zoo WAN. ``SDT_PROP_CASES`` scales the random cases.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.routing import (
    Hop,
    RouteTable,
    assert_deadlock_free,
    channel_dependency_graph,
    find_cycle,
    routes_for,
)
from repro.topology import build_zoo_topology, torus2d, zoo_catalog
from repro.topology.graph import bridges
from repro.util.errors import DeadlockError
from tests.core.test_transactions import cyclic_torus_table
from tests.proptools import prop_cases, random_topology, seeded_cases
from tests.routing.test_deadlock import clockwise_routes, ring4
from tests.topology.test_graph_algorithms_pinned import _generators


def random_tree_routes(topo, rng, num_vcs: int) -> RouteTable:
    """Per destination, a random depth-first spanning tree toward its
    switch, each hop on a random VC: loop-free walks, long enough that
    their union is often a cyclic CDG."""
    table = RouteTable(topo, num_vcs=num_vcs)
    nbrs = topo.switch_neighbors()
    for dst in topo.hosts:
        root = topo.host_switch(dst)
        parent = {root: root}
        stack = [root]
        while stack:
            fresh = [v for v in nbrs[stack[-1]] if v not in parent]
            if not fresh:
                stack.pop()
                continue
            v = fresh[int(rng.integers(0, len(fresh)))]
            parent[v] = stack[-1]
            stack.append(v)
        for sw, up in parent.items():
            link = topo.link_between(sw, dst if sw == root else up)
            vc = int(rng.integers(0, num_vcs))
            table.set_hop(sw, dst, Hop(link.port_on(sw), vc))
    return table


def oracle_cdg(table: RouteTable) -> nx.DiGraph:
    """The CDG as networkx builds it from one walk per host pair."""
    topo = table.topology
    cdg = nx.DiGraph()
    for src in topo.hosts:
        for dst in topo.hosts:
            if src == dst or not table.has_route(
                src if table.allow_host_forwarding else topo.host_switch(src), dst
            ):
                continue
            channels = [
                (node, nxt, hop.vc)
                for node, hop, _link, nxt in table.walk(src, dst)
                if nxt != dst
            ]
            cdg.add_nodes_from(channels)
            cdg.add_edges_from(zip(channels, channels[1:]))
    return cdg


def check_against_oracle(table: RouteTable, label) -> bool:
    """Assert the CDG, the verdict and any cycle against networkx;
    return whether the table is cycle-free."""
    cdg = channel_dependency_graph(table)
    key = lambda ch: (ch.src, ch.dst, ch.vc)
    oracle = oracle_cdg(table)
    assert [key(ch) for ch in cdg] == list(oracle.nodes), label
    assert [
        (key(a), key(b)) for a, succ in cdg.items() for b in succ
    ] == list(oracle.edges), label
    cycle = find_cycle(table)
    assert (cycle is None) == nx.is_directed_acyclic_graph(oracle), label
    if cycle is not None:
        # a closed chain of real dependencies through distinct channels
        assert len(set(cycle)) == len(cycle), label
        for here, there in zip(cycle, cycle[1:] + cycle[:1]):
            assert there in cdg[here], (label, here, there)
    return cycle is None


def test_random_tree_tables_agree_with_networkx():
    verdicts = []
    for i, rng in seeded_cases(prop_cases(40), 41, "cdg-oracle"):
        topo = random_topology(
            rng, min_switches=4, max_extra_links=12, max_hosts=10
        )
        table = random_tree_routes(topo, rng, num_vcs=int(rng.integers(1, 3)))
        verdicts.append(check_against_oracle(table, i))
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("dateline", [False, True])
def test_ring_tables_agree_with_networkx(dateline):
    table = clockwise_routes(ring4(), dateline=dateline)
    assert check_against_oracle(table, "ring4") is dateline


def test_generator_tables_agree_with_networkx():
    for topo in _generators():
        assert check_against_oracle(routes_for(topo), topo.name), topo.name


def test_a_refusal_names_the_cycle():
    table = cyclic_torus_table(torus2d(4, 4))
    cycle = find_cycle(table)
    assert cycle is not None
    with pytest.raises(DeadlockError) as refused:
        assert_deadlock_free(table)
    message = str(refused.value)
    assert f"({len(cycle)} channels)" in message
    assert " -> ".join(str(ch) for ch in cycle[:12]) in message


def _all_topologies():
    yield from _generators()
    for entry in zoo_catalog():
        yield build_zoo_topology(entry, hosts_per_switch=1)


def _nx_switch_graph(topo) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(topo.switches)
    g.add_edges_from(l.endpoints for l in topo.switch_links)
    return g


def _bridge_set(pairs) -> set[frozenset]:
    return {frozenset(pair) for pair in pairs}


def test_switch_neighbors_and_bridges_agree_with_networkx_everywhere():
    """Every generator topology and zoo WAN: the switch adjacency in
    networkx's order, and the same bridges on the full graph and on the
    switch graph."""
    count = 0
    for topo in _all_topologies():
        g = _nx_switch_graph(topo)
        nbrs = topo.switch_neighbors()
        assert nbrs == {u: list(vs) for u, vs in g.adj.items()}, topo.name
        assert _bridge_set(bridges(nbrs)) == _bridge_set(nx.bridges(g)), topo.name
        full = {node: topo.neighbors(node) for node in topo.nodes}
        g.add_edges_from(l.endpoints for l in topo.host_links)
        assert _bridge_set(bridges(full)) == _bridge_set(nx.bridges(g)), topo.name
        count += 1
    assert count > 200


def test_bridges_agree_with_networkx_on_random_graphs():
    """Random graphs with several components and isolated nodes, in a
    shuffled node order."""
    for i, rng in seeded_cases(prop_cases(200), 41, "bridges"):
        n = int(rng.integers(1, 30))
        names = [f"v{j}" for j in rng.permutation(n).tolist()]
        adjacency: dict[str, list[str]] = {u: [] for u in names}
        for _ in range(int(rng.integers(0, 2 * n + 1))):
            a, b = (names[int(j)] for j in rng.integers(0, n, size=2))
            if a != b and b not in adjacency[a]:
                adjacency[a].append(b)
                adjacency[b].append(a)
        g = nx.Graph()
        g.add_nodes_from(names)
        g.add_edges_from((u, v) for u in names for v in adjacency[u])
        assert _bridge_set(bridges(adjacency)) == _bridge_set(nx.bridges(g)), i
