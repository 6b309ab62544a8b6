"""Property-based partitioning invariants on random connected graphs."""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition import (
    cut_edges_between,
    greedy_partition,
    multilevel_partition,
    quality,
)


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=24))
    g = nx.Graph()
    nodes = [f"n{i}" for i in range(n)]
    g.add_nodes_from(nodes)
    for i in range(1, n):
        j = draw(st.integers(min_value=0, max_value=i - 1))
        g.add_edge(nodes[i], nodes[j])
    extra = draw(st.integers(min_value=0, max_value=2 * n))
    for _ in range(extra):
        i = draw(st.integers(min_value=0, max_value=n - 1))
        j = draw(st.integers(min_value=0, max_value=n - 1))
        if i != j:
            g.add_edge(nodes[i], nodes[j])
    return g


@given(connected_graphs(), st.data())
@settings(max_examples=40, deadline=None)
def test_multilevel_always_valid(g, data):
    k = data.draw(st.integers(min_value=1, max_value=g.number_of_nodes()))
    p = multilevel_partition(g, k)
    p.validate(g)
    assert p.num_parts == k


@given(connected_graphs(), st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_greedy_always_valid(g, k):
    k = min(k, g.number_of_nodes())
    p = greedy_partition(g, k)
    p.validate(g)


@given(connected_graphs(), st.integers(min_value=2, max_value=4))
@settings(max_examples=40, deadline=None)
def test_edge_accounting_conserved(g, k):
    k = min(k, g.number_of_nodes())
    p = multilevel_partition(g, k)
    q = quality(g, p)
    assert q.cut_edges + sum(q.internal_edges) == g.number_of_edges()
    assert sum(q.nodes_per_part) == g.number_of_nodes()


@given(connected_graphs())
@settings(max_examples=40, deadline=None)
def test_pairwise_cut_totals(g):
    k = min(3, g.number_of_nodes())
    p = multilevel_partition(g, k)
    pairs = cut_edges_between(g, p)
    assert sum(pairs.values()) == quality(g, p).cut_edges
