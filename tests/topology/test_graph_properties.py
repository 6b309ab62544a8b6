"""Property-based invariants of the Topology graph."""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology import Topology


@st.composite
def random_topologies(draw):
    """A connected random topology: spanning tree + extra edges + hosts."""
    n = draw(st.integers(min_value=1, max_value=12))
    t = Topology("random")
    switches = [t.add_switch(f"s{i}") for i in range(n)]
    for i in range(1, n):
        j = draw(st.integers(min_value=0, max_value=i - 1))
        t.connect(switches[i], switches[j])
    extra = draw(st.integers(min_value=0, max_value=min(6, n * (n - 1) // 2)))
    for _ in range(extra):
        i = draw(st.integers(min_value=0, max_value=n - 1))
        j = draw(st.integers(min_value=0, max_value=n - 1))
        if i != j and switches[j] not in t.neighbors(switches[i]):
            t.connect(switches[i], switches[j])
    hosts = draw(st.integers(min_value=0, max_value=5))
    for k in range(hosts):
        h = t.add_host(f"h{k}")
        sw = draw(st.integers(min_value=0, max_value=n - 1))
        t.connect(switches[sw], h)
    return t


@given(random_topologies())
@settings(max_examples=60, deadline=None)
def test_port_indices_dense_and_unique(topo):
    for node in topo.nodes:
        indices = [p.index for p in topo.ports_of(node)]
        assert indices == list(range(len(indices)))


@given(random_topologies())
@settings(max_examples=60, deadline=None)
def test_links_consistent_with_ports(topo):
    # every link's two ports resolve back to the link; every port has a link
    for link in topo.links:
        assert topo.link_of_port(link.a) is link
        assert topo.link_of_port(link.b) is link
    total_ports = sum(topo.radix(n) for n in topo.nodes)
    assert total_ports == 2 * len(topo.links)


@given(random_topologies())
@settings(max_examples=60, deadline=None)
def test_validate_passes_for_generated(topo):
    topo.validate()  # must not raise: construction maintains invariants


@given(random_topologies())
@settings(max_examples=60, deadline=None)
def test_switch_plus_host_links_cover_all(topo):
    assert len(topo.switch_links) + len(topo.host_links) == len(topo.links)


@given(random_topologies())
@settings(max_examples=60, deadline=None)
def test_switch_neighbors_match_a_networkx_switch_graph(topo):
    """networkx is the oracle: the switch graph it builds from the
    switches and switch links lists the same neighbours in the same
    order."""
    g = nx.Graph()
    g.add_nodes_from(topo.switches)
    g.add_edges_from(l.endpoints for l in topo.switch_links)
    assert topo.switch_neighbors() == {u: list(nbrs) for u, nbrs in g.adj.items()}
