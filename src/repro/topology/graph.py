"""Logical topology graph.

A *logical topology* (§III-B of the paper) is the user-defined network
the researcher wants to evaluate: logical switches, hosts ("computing
nodes"), and links. Every link endpoint occupies a numbered *port* on
its node — the port numbering is what Topology Projection maps onto
physical switch ports, so :class:`Topology` assigns port indices
deterministically in insertion order.

Nodes are identified by strings. Switch and host namespaces are
disjoint; :meth:`Topology.connect` accepts any mix of the two.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Container, Iterable, Iterator, Mapping, Sequence

from repro.util.errors import TopologyError


@dataclass(frozen=True, order=True)
class Port:
    """A numbered port on a logical node (``node``, 0-based ``index``)."""

    node: str
    index: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.node}.p{self.index}"


@dataclass(frozen=True)
class Link:
    """An undirected logical link between two ports.

    ``a`` and ``b`` are :class:`Port` objects; the link is identified by
    its ``index`` (insertion order) which generators and tests use as a
    stable handle.
    """

    index: int
    a: Port
    b: Port

    @property
    def endpoints(self) -> tuple[str, str]:
        return (self.a.node, self.b.node)

    def other(self, node: str) -> str:
        """The endpoint node opposite ``node``."""
        if node == self.a.node:
            return self.b.node
        if node == self.b.node:
            return self.a.node
        raise TopologyError(f"{node!r} is not an endpoint of link {self.index}")

    def port_on(self, node: str) -> Port:
        """The port this link occupies on ``node``."""
        if node == self.a.node:
            return self.a
        if node == self.b.node:
            return self.b
        raise TopologyError(f"{node!r} is not an endpoint of link {self.index}")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"L{self.index}({self.a}--{self.b})"


@dataclass
class Topology:
    """A logical topology: switches, hosts, and port-numbered links."""

    name: str = "topology"
    _switches: dict[str, None] = field(default_factory=dict)
    _hosts: dict[str, None] = field(default_factory=dict)
    _links: list[Link] = field(default_factory=list)
    _ports: dict[str, list[Port]] = field(default_factory=dict)
    # adjacency, kept current by every construction step: partitioning,
    # routing and projection walk the graph heavily enough that
    # per-call rebuilds dominated their cost. A node's links are in
    # port order, so ``_adj[port.node][port.index]`` is a port's link.
    _adj: dict[str, list[Link]] = field(default_factory=dict, repr=False)
    _nbrs: dict[str, list[str]] = field(default_factory=dict, repr=False)
    _pair_link: dict[tuple[str, str], Link] = field(
        default_factory=dict, repr=False
    )
    # set by a passing validate(), cleared by every construction step
    _valid: bool = field(default=False, init=False, repr=False, compare=False)

    # --- construction -------------------------------------------------
    def add_switch(self, name: str) -> str:
        """Register a logical switch; returns its name for chaining."""
        self._add_node(name, self._switches)
        return name

    def add_host(self, name: str) -> str:
        """Register a host (computing node)."""
        self._add_node(name, self._hosts)
        return name

    def _add_node(self, name: str, kind: dict[str, None]) -> None:
        if name in self._switches or name in self._hosts:
            raise TopologyError(f"node {name!r} already exists in {self.name!r}")
        kind[name] = None
        self._ports[name] = []
        self._adj[name] = []
        self._nbrs[name] = []
        self._valid = False

    def connect(self, a: str, b: str) -> Link:
        """Add an undirected link between nodes ``a`` and ``b``.

        Each endpoint is assigned the next free port index on its node.
        Parallel links and self-loops are rejected: none of the
        topologies in the paper use them and they complicate projection
        for no benefit.
        """
        if a == b:
            raise TopologyError(f"self-loop on {a!r} not supported")
        for node in (a, b):
            if node not in self._ports:
                raise TopologyError(f"unknown node {node!r} in {self.name!r}")
        if (a, b) in self._pair_link:
            raise TopologyError(f"parallel link {a!r}--{b!r} not supported")
        pa = Port(a, len(self._ports[a]))
        pb = Port(b, len(self._ports[b]))
        link = Link(len(self._links), pa, pb)
        self._ports[a].append(pa)
        self._ports[b].append(pb)
        self._links.append(link)
        self._adj[a].append(link)
        self._adj[b].append(link)
        self._nbrs[a].append(b)
        self._nbrs[b].append(a)
        self._pair_link[(a, b)] = link
        self._pair_link[(b, a)] = link
        self._valid = False
        return link

    def spliced(
        self,
        name: str,
        switches: Iterable[str],
        hosts: Iterable[str],
        links: Sequence[Sequence[str]],
        kept: Sequence[int],
        touched: Container[str],
    ) -> tuple[Topology, int]:
        """The topology that adds ``switches`` and ``hosts`` and then
        connects each ``links`` pair in order, made by editing this one,
        and how many links it connected: the added ones and the kept
        ones at a touched node.

        ``kept[i]`` is the index of this topology's link that
        ``links[i]`` keeps — same endpoints, in the same order — or -1
        for an added link; kept links appear in this topology's link
        order. ``touched`` holds every endpoint of an added link, every
        endpoint of a link nothing keeps, and every added node: the
        nodes whose ports renumber. The result equals the build from
        scratch, link indices and port numbers included. Only touched
        nodes get new ports; a kept link after an edit point whose ports
        did not move is re-indexed (a new :class:`Link` on the same
        ports), every other kept link is shared, and the adjacency is
        patched for the new links alone. Not validated.
        """
        new = Topology(name)
        new._switches = dict.fromkeys(switches)
        new._hosts = dict.fromkeys(hosts)
        ports, adj, nbrs = new._ports, new._adj, new._nbrs
        old_ports, old_adj, old_nbrs = self._ports, self._adj, self._nbrs
        for node in (*new._switches, *new._hosts):
            if node in touched or node not in old_ports:
                # gets its links in order below
                ports[node], adj[node], nbrs[node] = [], [], []
            else:
                ports[node] = old_ports[node].copy()
                adj[node] = old_adj[node].copy()
                nbrs[node] = old_nbrs[node].copy()
        pair = dict(self._pair_link)
        for node in touched:
            for nb in old_nbrs.get(node, ()):
                pair.pop((node, nb), None)
                pair.pop((nb, node), None)
        old_links = self._links
        out = new._links
        connected = 0
        for i, (a, b) in enumerate(links):
            w = kept[i]
            new_a = a in touched
            new_b = b in touched
            if w == i and not (new_a or new_b):
                out.append(old_links[i])
                continue
            if new_a:
                pa = Port(a, len(ports[a]))
            else:
                pa = old_links[w].a
            if new_b:
                pb = Port(b, len(ports[b]))
            else:
                pb = old_links[w].b
            link = Link(i, pa, pb)
            out.append(link)
            if new_a:
                ports[a].append(pa)
                adj[a].append(link)
                nbrs[a].append(b)
            else:
                adj[a][pa.index] = link
            if new_b:
                ports[b].append(pb)
                adj[b].append(link)
                nbrs[b].append(a)
            else:
                adj[b][pb.index] = link
            pair[(a, b)] = link
            pair[(b, a)] = link
            if new_a or new_b:
                connected += 1
        new._pair_link = pair
        return new, connected

    # --- accessors ----------------------------------------------------
    @property
    def switches(self) -> list[str]:
        return list(self._switches)

    @property
    def hosts(self) -> list[str]:
        return list(self._hosts)

    @property
    def nodes(self) -> list[str]:
        return [*self._switches, *self._hosts]

    @property
    def links(self) -> list[Link]:
        return list(self._links)

    def is_switch(self, node: str) -> bool:
        return node in self._switches

    def is_host(self, node: str) -> bool:
        return node in self._hosts

    @property
    def switch_links(self) -> list[Link]:
        """Links with both endpoints on switches (E_s + E_a material)."""
        return [
            l
            for l in self._links
            if self.is_switch(l.a.node) and self.is_switch(l.b.node)
        ]

    @property
    def host_links(self) -> list[Link]:
        """Links attaching hosts to switches (E_n in §IV-B)."""
        return [
            l
            for l in self._links
            if self.is_host(l.a.node) or self.is_host(l.b.node)
        ]

    def ports_of(self, node: str) -> list[Port]:
        try:
            return list(self._ports[node])
        except KeyError:
            raise TopologyError(f"unknown node {node!r}") from None

    def radix(self, node: str) -> int:
        """Number of ports in use on ``node``."""
        return len(self.ports_of(node))

    def link_of_port(self, port: Port) -> Link:
        links = self._adj.get(port.node)
        if links is not None and 0 <= port.index < len(links):
            return links[port.index]
        raise TopologyError(f"port {port} has no link")

    def links_of(self, node: str) -> list[Link]:
        """This node's links, in port order. The returned list is the
        topology's own — treat it as read-only."""
        try:
            return self._adj[node]
        except KeyError:
            raise TopologyError(f"unknown node {node!r}") from None

    def neighbors(self, node: str) -> list[str]:
        """This node's neighbor names, in port order. The returned list
        is the topology's own — treat it as read-only."""
        try:
            return self._nbrs[node]
        except KeyError:
            raise TopologyError(f"unknown node {node!r}") from None

    def find_link(self, a: str, b: str) -> Link | None:
        """The link between ``a`` and ``b``, or None."""
        return self._pair_link.get((a, b))

    def link_between(self, a: str, b: str) -> Link:
        link = self._pair_link.get((a, b))
        if link is None:
            raise TopologyError(f"no link {a!r}--{b!r} in {self.name!r}")
        return link

    def host_switch(self, host: str) -> str:
        """The switch a host is attached to (hosts are single-homed here)."""
        if not self.is_host(host):
            raise TopologyError(f"{host!r} is not a host")
        neighbors = self.neighbors(host)
        if len(neighbors) != 1:
            raise TopologyError(
                f"host {host!r} has {len(neighbors)} attachments, expected 1"
            )
        return neighbors[0]

    def hosts_of_switch(self, switch: str) -> list[str]:
        return [n for n in self.neighbors(switch) if self.is_host(n)]

    # --- aggregate properties ------------------------------------------
    @property
    def total_switch_ports(self) -> int:
        """Total ports across logical switches (the TP feasibility metric:
        a projection fits iff this is <= physical ports available)."""
        return sum(self.radix(s) for s in self._switches)

    @property
    def num_switch_links(self) -> int:
        return len(self.switch_links)

    @property
    def num_host_links(self) -> int:
        return len(self.host_links)

    def switch_neighbors(
        self, failed_links: Container[int] = ()
    ) -> dict[str, list[str]]:
        """Per switch, its switch neighbours in link order (hosts
        dropped), over the links whose index is not in ``failed_links``:
        the graph that routing, partitioning, failure repair and bridge
        search walk. Built fresh on every call, so the caller may edit
        it."""
        is_switch = self.is_switch
        return {
            sw: [
                nb
                for link, nb in zip(self.links_of(sw), self.neighbors(sw))
                if is_switch(nb) and link.index not in failed_links
            ]
            for sw in self._switches
        }

    # --- validation ----------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`TopologyError` on structural inconsistencies.
        A topology that passed is not walked again until it changes."""
        if self._valid:
            return
        if not self._switches:
            raise TopologyError(f"{self.name!r} has no switches")
        for h in self._hosts:
            neighbors = self.neighbors(h)
            if not neighbors:
                raise TopologyError(f"host {h!r} is not attached to anything")
            for n in neighbors:
                if not self.is_switch(n):
                    raise TopologyError(
                        f"host {h!r} attaches to non-switch {n!r}"
                    )
        # port indices must be dense and unique per node
        for node, ports in self._ports.items():
            indices = [p.index for p in ports]
            if indices != list(range(len(ports))):
                raise TopologyError(f"non-dense port numbering on {node!r}")
        if self._hosts and not self.is_connected():
            raise TopologyError(f"{self.name!r} is not connected")
        self._valid = True

    def is_connected(self) -> bool:
        """Whether every node reaches every other over the links; a
        topology with no nodes is not connected."""
        nodes = self.nodes
        if not nodes:
            return False
        reached = bfs_parents(nodes[0], self._nbrs)
        return len(reached) == len(nodes)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Topology({self.name!r}: {len(self._switches)} switches, "
            f"{len(self._hosts)} hosts, {len(self._links)} links)"
        )


def bfs_parents(root: str, adjacency: Mapping[str, Iterable[str]]) -> dict[str, str]:
    """The BFS tree rooted at ``root`` as each reached node's parent
    (the root is its own): a node adopts the first neighbour the BFS
    reached it from. Unreached nodes are left out; a parent always
    comes before its children."""
    parent: dict[str, str] = {root: root}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if v not in parent:
                parent[v] = u
                queue.append(v)
    return parent


def bfs_depths(root: str, adjacency: Mapping[str, Iterable[str]]) -> dict[str, int]:
    """Hops from ``root`` to each node it reaches, in BFS order."""
    depth: dict[str, int] = {}
    for node, parent in bfs_parents(root, adjacency).items():
        depth[node] = depth[parent] + 1 if node != root else 0
    return depth


def bridges(adjacency: Mapping[str, Iterable[str]]) -> list[tuple[str, str]]:
    """The bridges of a simple undirected graph — the edges whose
    removal disconnects their endpoints — as (parent, child) pairs of
    an iterative depth-first search (Tarjan's low-link test)."""
    order: dict[str, int] = {}
    low: dict[str, int] = {}
    found: list[tuple[str, str]] = []
    for root in adjacency:
        if root in order:
            continue
        order[root] = low[root] = len(order)
        stack: list[tuple[str, str | None, Iterator[str]]] = [
            (root, None, iter(adjacency[root]))
        ]
        while stack:
            u, parent, nbrs = stack[-1]
            for v in nbrs:
                if v in order:
                    # no parallel links: the one edge back to the
                    # parent is the tree edge itself
                    if v != parent and order[v] < low[u]:
                        low[u] = order[v]
                    continue
                order[v] = low[v] = len(order)
                stack.append((v, u, iter(adjacency[v])))
                break
            else:
                stack.pop()
                if parent is not None:
                    if low[u] < low[parent]:
                        low[parent] = low[u]
                    if low[u] > order[parent]:
                        found.append((parent, u))
    return found
