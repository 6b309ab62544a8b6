"""Graphs in the partitioners' form — node weights plus a weighted
adjacency — for the partition tests."""

from __future__ import annotations

from repro.partition import Adjacency, Weights


class Graph:
    """An undirected graph built node by node and edge by edge.

    Nodes keep their first-added order and each node lists its
    neighbours in the order their edges were first added. A node added
    without a weight weighs 1, and so does an edge; re-adding an edge
    keeps its place and replaces its weight only when one is given.
    """

    def __init__(self) -> None:
        self.weights: Weights = {}
        self.adj: Adjacency = {}

    def add_node(self, u: str, weight: int | None = None) -> None:
        if u not in self.weights:
            self.weights[u] = 1
            self.adj[u] = {}
        if weight is not None:
            self.weights[u] = weight

    def add_edge(self, u: str, v: str, weight: int | None = None) -> None:
        self.add_node(u)
        self.add_node(v)
        if weight is None:
            self.adj[u].setdefault(v, 1)
            self.adj[v].setdefault(u, 1)
        else:
            self.adj[u][v] = self.adj[v][u] = weight

    @property
    def args(self) -> tuple[Weights, Adjacency]:
        """``(weights, adj)``, the partitioners' leading arguments."""
        return self.weights, self.adj

    def number_of_edges(self) -> int:
        return sum(1 for u, nbrs in self.adj.items() for v in nbrs if u <= v)


def grid(x: int, y: int) -> Graph:
    """The ``x`` by ``y`` grid, nodes named ``"i-j"``."""
    g = Graph()
    for i in range(x):
        for j in range(y):
            g.add_node(f"{i}-{j}")
            if i:
                g.add_edge(f"{i - 1}-{j}", f"{i}-{j}")
            if j:
                g.add_edge(f"{i}-{j - 1}", f"{i}-{j}")
    return g
