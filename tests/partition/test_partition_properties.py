"""Property-based partitioning invariants on random connected graphs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition import (
    cut_edges_between,
    greedy_partition,
    multilevel_partition,
    quality,
)
from tests.partition.graphs import Graph


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=24))
    g = Graph()
    nodes = [f"n{i}" for i in range(n)]
    for u in nodes:
        g.add_node(u)
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
    k = data.draw(st.integers(min_value=1, max_value=len(g.weights)))
    p = multilevel_partition(*g.args, k)
    p.validate(g.weights)
    assert p.num_parts == k


@given(connected_graphs(), st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_greedy_always_valid(g, k):
    k = min(k, len(g.weights))
    p = greedy_partition(*g.args, k)
    p.validate(g.weights)


@given(connected_graphs(), st.integers(min_value=2, max_value=4))
@settings(max_examples=40, deadline=None)
def test_edge_accounting_conserved(g, k):
    k = min(k, len(g.weights))
    p = multilevel_partition(*g.args, k)
    q = quality(*g.args, p)
    assert q.cut_edges + sum(q.internal_edges) == g.number_of_edges()
    assert sum(q.nodes_per_part) == len(g.weights)


@given(connected_graphs())
@settings(max_examples=40, deadline=None)
def test_pairwise_cut_totals(g):
    k = min(3, len(g.weights))
    p = multilevel_partition(*g.args, k)
    pairs = cut_edges_between(g.adj, p)
    assert sum(pairs.values()) == quality(*g.args, p).cut_edges
