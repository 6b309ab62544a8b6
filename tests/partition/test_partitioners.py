"""Graph partitioning: validity, quality, the paper's Fig. 7 cases."""

import pytest

from repro.partition import (
    cut_edges_between,
    greedy_partition,
    multilevel_partition,
    objective,
    partition_topology,
    quality,
    spectral_partition,
    weighted_switch_graph,
)
from repro.topology import chain, dragonfly, fat_tree, torus2d
from repro.util.errors import PartitionError
from tests.partition.graphs import Graph, grid

METHODS = ["multilevel", "spectral", "greedy", "ncut"]


@pytest.mark.parametrize("method", METHODS)
def test_partition_is_valid(method, fattree4):
    p = partition_topology(fattree4, 2, method=method)
    p.validate(weighted_switch_graph(fattree4)[0])
    assert p.num_parts == 2


@pytest.mark.parametrize("method", METHODS)
def test_every_switch_assigned(method, torus55):
    p = partition_topology(torus55, 3, method=method)
    assert set(p.assignment) == set(torus55.switches)


def test_fig7_case_a_torus_2way():
    """Fig. 7 Case A: 4x4 2D-Torus across 2 switches needs 8
    inter-switch links."""
    topo = torus2d(4, 4)
    p = partition_topology(topo, 2, method="multilevel")
    q = quality(*weighted_switch_graph(topo), p)
    assert q.cut_edges == 8
    assert q.nodes_per_part == (8, 8)


def test_fig7_case_b_torus_4way():
    """Fig. 7 Case B: 4 switches, 16 inter-switch links total."""
    topo = torus2d(4, 4)
    p = partition_topology(topo, 4, method="multilevel")
    q = quality(*weighted_switch_graph(topo), p)
    assert q.cut_edges == 16
    assert q.nodes_per_part == (4, 4, 4, 4)


def test_multilevel_beats_or_matches_greedy_on_dragonfly():
    topo = dragonfly(4, 9, 2)
    g = weighted_switch_graph(topo)
    ml = partition_topology(topo, 3, method="multilevel")
    gr = partition_topology(topo, 3, method="greedy")
    assert objective(*g, ml) <= objective(*g, gr)


def test_single_part():
    topo = fat_tree(4)
    p = partition_topology(topo, 1)
    assert set(p.assignment.values()) == {0}


def test_too_many_parts_rejected():
    topo = torus2d(3, 3)
    with pytest.raises(PartitionError):
        partition_topology(topo, 10)


def test_unknown_method_rejected():
    with pytest.raises(PartitionError, match="unknown partition method"):
        partition_topology(fat_tree(4), 2, method="magic")


def test_cut_edges_between_sums_to_cut():
    topo = dragonfly(4, 9, 2)
    weights, adj = weighted_switch_graph(topo)
    p = partition_topology(topo, 3)
    pairs = cut_edges_between(adj, p)
    assert sum(pairs.values()) == quality(weights, adj, p).cut_edges
    for (a, b) in pairs:
        assert a < b


def test_quality_internal_plus_cut_is_total():
    topo = fat_tree(4)
    p = partition_topology(topo, 2)
    q = quality(*weighted_switch_graph(topo), p)
    assert q.total_edges == topo.num_switch_links


def test_objective_penalizes_imbalance():
    g = Graph()
    for i in range(1, 8):
        g.add_edge(f"n{i - 1}", f"n{i}")
    from repro.partition import Partition

    balanced = Partition({f"n{i}": (0 if i < 4 else 1) for i in range(8)}, 2)
    skewed = Partition({f"n{i}": (0 if i < 1 else 1) for i in range(8)}, 2)
    assert objective(*g.args, balanced) < objective(*g.args, skewed)


def test_spectral_2way_median_split_balanced():
    topo = torus2d(4, 4)
    p = spectral_partition(*weighted_switch_graph(topo), 2)
    sizes = [len(part) for part in p.parts()]
    assert max(sizes) - min(sizes) <= 2


def test_greedy_handles_disconnected_graph():
    g = Graph()
    g.add_edge("a", "b")
    g.add_edge("c", "d")
    p = greedy_partition(*g.args, 2)
    p.validate(g.weights)


def test_multilevel_deterministic_per_seed():
    topo = dragonfly(4, 9, 2)
    a = partition_topology(topo, 3, seed=5).assignment
    b = partition_topology(topo, 3, seed=5).assignment
    assert a == b


def test_multilevel_splits_every_chain_into_every_feasible_part_count():
    """A bisection balances node weight, not node count, so it can
    leave a side fewer nodes than its share of parts (chain 7 into 7
    parts once raised "cannot split 1 nodes into 2 parts"). That side
    now gets one part per node and the other side the rest."""
    for n in range(2, 30):
        topo = chain(n)
        weights, _adj = weighted_switch_graph(topo)
        for k in range(1, n + 1):
            p = partition_topology(topo, k)
            p.validate(weights)
            assert p.num_parts == k


def test_multilevel_large_graph():
    g = grid(10, 10)
    p = multilevel_partition(*g.args, 4)
    p.validate(g.weights)
    q = quality(*g.args, p)
    # a 10x10 grid 4-way should cut well under half the edges
    assert q.cut_edges < g.number_of_edges() / 2
