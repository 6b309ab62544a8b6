"""Graph partitioning: validity, quality, the paper's Fig. 7 cases."""

import networkx as nx
import pytest

from repro.partition import (
    cut_edges_between,
    greedy_partition,
    multilevel_partition,
    objective,
    partition_topology,
    quality,
    spectral_partition,
)
from repro.topology import chain, dragonfly, fat_tree, torus2d
from repro.util.errors import PartitionError

METHODS = ["multilevel", "spectral", "greedy", "ncut"]


@pytest.mark.parametrize("method", METHODS)
def test_partition_is_valid(method, fattree4):
    p = partition_topology(fattree4, 2, method=method)
    p.validate(fattree4.switch_graph())
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
    q = quality(topo.switch_graph(), p)
    assert q.cut_edges == 8
    assert q.nodes_per_part == (8, 8)


def test_fig7_case_b_torus_4way():
    """Fig. 7 Case B: 4 switches, 16 inter-switch links total."""
    topo = torus2d(4, 4)
    p = partition_topology(topo, 4, method="multilevel")
    q = quality(topo.switch_graph(), p)
    assert q.cut_edges == 16
    assert q.nodes_per_part == (4, 4, 4, 4)


def test_multilevel_beats_or_matches_greedy_on_dragonfly():
    topo = dragonfly(4, 9, 2)
    g = topo.switch_graph()
    ml = partition_topology(topo, 3, method="multilevel")
    gr = partition_topology(topo, 3, method="greedy")
    assert objective(g, ml) <= objective(g, gr)


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
    g = topo.switch_graph()
    p = partition_topology(topo, 3)
    pairs = cut_edges_between(g, p)
    assert sum(pairs.values()) == quality(g, p).cut_edges
    for (a, b) in pairs:
        assert a < b


def test_quality_internal_plus_cut_is_total():
    topo = fat_tree(4)
    g = topo.switch_graph()
    p = partition_topology(topo, 2)
    q = quality(g, p)
    assert q.total_edges == g.number_of_edges()


def test_objective_penalizes_imbalance():
    g = nx.path_graph([f"n{i}" for i in range(8)])
    from repro.partition import Partition

    balanced = Partition({f"n{i}": (0 if i < 4 else 1) for i in range(8)}, 2)
    skewed = Partition({f"n{i}": (0 if i < 1 else 1) for i in range(8)}, 2)
    assert objective(g, balanced) < objective(g, skewed)


def test_spectral_2way_median_split_balanced():
    topo = torus2d(4, 4)
    p = spectral_partition(topo.switch_graph(), 2)
    sizes = [len(part) for part in p.parts()]
    assert max(sizes) - min(sizes) <= 2


def test_greedy_handles_disconnected_graph():
    g = nx.Graph()
    g.add_edges_from([("a", "b"), ("c", "d")])
    p = greedy_partition(g, 2)
    p.validate(g)


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
        graph = topo.switch_graph()
        for k in range(1, n + 1):
            p = partition_topology(topo, k)
            p.validate(graph)
            assert p.num_parts == k


def test_multilevel_large_graph():
    g = nx.grid_2d_graph(10, 10)
    g = nx.relabel_nodes(g, {n: f"{n[0]}-{n[1]}" for n in g.nodes})
    p = multilevel_partition(g, 4)
    p.validate(g)
    q = quality(g, p)
    # a 10x10 grid 4-way should cut well under half the edges
    assert q.cut_edges < g.number_of_edges() / 2
