"""Link Projection — the SDT method (§IV).

SP projects *switches* first and then asks for cables matching the
logical links; LP inverts that: the physical cabling (self-links,
inter-switch links, host ports) is **fixed**, logical links are
projected onto physical links, and the sub-switch partition *follows*
from where the link endpoints landed. Reconfiguration therefore needs
no rewiring — only new flow tables.

Multi-switch LP (§IV-B) first partitions the logical topology so that
each part's internal links fit the owning switch's self-links and each
part pair's crossing links fit the reserved inter-switch links.

The pipeline is *partition → deficits → allocate*, each step written
once: :meth:`LinkProjection.partition_for`, :meth:`LinkProjection.ledger`
(rendered as messages by :meth:`LinkProjection.check`, turned into flex
circuits by :mod:`~repro.core.projection.hybrid`) and :func:`realize`
(a cold projection is a delta from :func:`empty_projection`;
:func:`~repro.core.projection.delta.project_delta` runs it from the
live one). What a staging may bind is one :class:`FreeWiring` view,
which the ledger, the allocator and the controller's headroom ranking
all read.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple

from repro.core.projection.base import (
    LinkRealization,
    PhysPort,
    ProjectionResult,
    SubSwitch,
    host_port_demand,
    inter_switch_link_demand,
    self_link_demand,
)
from repro.hardware.cluster import PhysicalCluster
from repro.hardware.wiring import WiringPlan
from repro.partition import Partition, partition_topology
from repro.telemetry import metrics
from repro.topology.diff import TopologyDiff, diff_topologies
from repro.topology.graph import Topology
from repro.util.errors import CapacityError, ProjectionError


class Resource(NamedTuple):
    """One kind of fixed wiring a projection consumes."""

    kind: str  # as the ledger and the messages name it
    demand: Callable  # Eq. 1/2: needed per part (or part pair)
    wired: Callable  # the cables wired on a switch (or switch pair)
    budget: str  # its key in plan_inter_switch_reservation's result
    remedy: str  # the paper's "necessary link modification"
    #: one physical port of a cable, as (switch, port); no other
    #: cable has it
    port: Callable


SELF_LINKS = Resource(
    "self-links", self_link_demand, WiringPlan.self_links_of,
    "self_links_per_switch", "add {} loop cables",
    lambda c: (c.switch, c.port_a),
)
INTER_LINKS = Resource(
    "inter-switch links", inter_switch_link_demand,
    WiringPlan.inter_links_between,
    "inter_links_per_pair", "add {} cables",
    lambda c: (c.switch_a, c.port_a),
)
HOST_PORTS = Resource(
    "host ports", host_port_demand, WiringPlan.hosts_of,
    "hosts_per_switch", "attach {} more hosts",
    lambda c: (c.switch, c.port),
)
#: in ledger order
RESOURCES = (SELF_LINKS, INTER_LINKS, HOST_PORTS)


class FreeWiring:
    """The wiring one staging may bind: the cables of ``wiring`` no
    other live deployment holds (``held``), and of the host ports only
    those in a tenant's ``lease`` (None: all). :meth:`cables` is
    computed once per view, so the deficit ledger, the allocator and
    the headroom ranking test each cable once."""

    def __init__(
        self, wiring: WiringPlan, held=frozenset(), lease=None
    ) -> None:
        self.wiring, self.held = wiring, held
        self.lease = None if lease is None else frozenset(lease)
        self._free: dict[tuple, tuple] = {}

    def cables(self, resource: Resource, *switches: str) -> tuple:
        """The free cables of ``resource`` on a switch (or between a
        pair, in either order), in wiring order."""
        key = (resource, *sorted(switches))
        if key not in self._free:
            held = self.held
            lease = self.lease if resource is HOST_PORTS else None
            self._free[key] = tuple(
                c for c in resource.wired(self.wiring, *switches)
                if c not in held and (lease is None or c in lease)
            )
        return self._free[key]

    def over(self, wiring: WiringPlan) -> FreeWiring:
        """The same holdings and lease over another plan."""
        return FreeWiring(wiring, self.held, self.lease)


def require_projectable(
    topology: Topology, hosts: Iterable[str] | None = None
) -> None:
    """What every projection demands of its input: a valid topology
    whose hosts (or those of them in ``hosts``) are single-homed."""
    topology.validate()
    for h in topology.hosts if hosts is None else hosts:
        if topology.is_host(h) and topology.radix(h) > 1:
            raise ProjectionError(
                f"host {h!r} is multi-homed ({topology.radix(h)} NICs); "
                "projection currently supports single-homed hosts "
                "(server-centric topologies like BCube run on the "
                "logical simulator arm)"
            )


def empty_projection(names: list[str], num_parts: int) -> ProjectionResult:
    """The projection of nothing, with part ``i`` on ``names[i]`` —
    what a cold projection is a delta from."""
    return ProjectionResult(
        topology=Topology("empty"),
        partition=Partition({}, num_parts),
        part_to_phys={p: names[p] for p in range(num_parts)},
        subswitches={},
        port_map={},
        host_map={},
        link_realization={},
    )


def realize(
    free: FreeWiring,
    old: ProjectionResult,
    topology: Topology,
    partition: Partition,
    *,
    metadata_base: int,
    usage=None,
    diff: TopologyDiff | None = None,
) -> ProjectionResult:
    """The one allocator: give every (used) link of ``topology`` a
    physical realization, by editing the projection ``old`` along
    ``diff`` (default: :func:`~repro.topology.diff.diff_topologies` of
    the two topologies).

    A link that ``old`` already realized (same endpoint names) keeps its
    cable and physical ports, a sub-switch that ``old`` had keeps its
    metadata tag; an added link takes the first cable of the right kind
    that ``free`` lists and no surviving link holds, and an added
    sub-switch the next tag from ``metadata_base``
    (tag 0 means unclassified). Only the sub-switches whose ports the
    diff renumbers are bound again, and only they are validated; every
    other sub-switch, port, host and cable is carried over from ``old``,
    re-keyed where link indices shifted. A cold projection is the edit
    of :func:`empty_projection` in which every link is added; ``usage``
    leaves the added links it does not use without hardware. Raises
    :class:`CapacityError` when a pool runs dry.
    """
    if diff is None:
        diff = diff_topologies(old.topology, topology)
    part_to_phys = dict(old.part_to_phys)
    old_subs = old.subswitches
    rebound = diff.rebound_nodes() if old_subs else frozenset()

    next_meta = metadata_base
    subswitches: dict[str, SubSwitch] = {}
    fresh: list[SubSwitch] = []  # the sub-switches to bind and validate
    for sw in topology.switches:
        phys = part_to_phys[partition.part_of(sw)]
        old_sub = old_subs.get(sw)
        if old_sub is None:
            meta, next_meta = next_meta, next_meta + 1
        elif sw in rebound or old_sub.phys_switch != phys:
            meta = old_sub.metadata_id
        else:
            subswitches[sw] = old_sub
            continue
        sub = subswitches[sw] = SubSwitch(sw, phys, meta)
        fresh.append(sub)

    # unbind every port of a fresh or removed sub-switch: its links'
    # cables return to the pools unless a surviving link binds them again
    port_map = dict(old.port_map)
    owners = dict(old.port_owners)
    for sw in (*(sub.logical_switch for sub in fresh), *diff.removed_switches):
        if sw in old_subs:
            for lp in old.topology.ports_of(sw):
                pp = port_map.pop(lp, None)
                if pp is not None:
                    owners.pop((pp.switch, pp.port), None)
    host_map = dict(old.host_map)
    for host in diff.removed_hosts:
        host_map.pop(host, None)

    kept = diff.kept
    added = [i for i, was in enumerate(kept) if was < 0]
    bound = len(added)
    if len(added) < len(kept):
        # surviving links at a fresh sub-switch: the same physical
        # ports, under the (possibly renumbered) new logical ports
        old_links = old.topology.links
        old_port_map = old.port_map
        rebound_links = set()
        for sub in fresh:
            sw = sub.logical_switch
            for link in topology.links_of(sw):
                was = kept[link.index]
                if was < 0:
                    continue
                lp = link.port_on(sw)
                pp = old_port_map[old_links[was].port_on(sw)]
                port_map[lp] = pp
                owners.setdefault((pp.switch, pp.port), lp)
                sub.ports[lp.index] = pp
                rebound_links.add(link.index)
        bound += len(rebound_links)

    pools: dict[tuple, list] = {}
    # a free cable is taken unless a kept link holds its port; a cable
    # taken below leaves its pool, so with nothing kept (a cold
    # projection) no pool needs the port check
    kept_ports = bool(owners)

    def take(resource: Resource, *switches: str):
        """The next free cable, for the ``link`` being realized."""
        pool = pools.get((resource, switches))
        if pool is None:
            pool = [
                c for c in free.cables(resource, *switches)
                if not kept_ports or resource.port(c) not in owners
            ]
            pools[resource, switches] = pool
        if not pool:
            raise CapacityError(
                f"{'<->'.join(switches)}: ran out of {resource.kind} for "
                f"link {link.a.node!r}--{link.b.node!r}"
            )
        return pool.pop(0)

    links = topology.links
    cables: dict[int, LinkRealization] = {}
    for i in added:
        if usage is not None and not usage.uses_link(i):
            bound -= 1
            continue
        link = links[i]
        ends = [p for p in (link.a, link.b) if p.node in subswitches]
        homes = [subswitches[p.node].phys_switch for p in ends]
        if len(ends) == 1:
            cable = take(HOST_PORTS, *homes)
            phys_ports = [PhysPort(cable.switch, cable.port)]
            host_map[link.other(ends[0].node)] = cable.host
        elif homes[0] == homes[1]:
            cable = take(SELF_LINKS, homes[0])
            phys_ports = [
                PhysPort(cable.switch, cable.port_a),
                PhysPort(cable.switch, cable.port_b),
            ]
        else:
            cable = take(INTER_LINKS, *sorted(homes))
            phys_ports = [PhysPort(n, cable.endpoint_on(n)) for n in homes]
        for logical, physical in zip(ends, phys_ports):
            port_map[logical] = physical
            owners.setdefault((physical.switch, physical.port), logical)
            subswitches[logical.node].ports[logical.index] = physical
        cables[i] = cable

    old_cables = old.link_realization
    link_realization = {
        i: old_cables[was] if was >= 0 else cables[i]
        for i, was in enumerate(kept)
        if was >= 0 or i in cables
    }
    metrics.registry().counter(
        "sdt_projection_links_bound_total",
        "logical links a projection allocated a cable for or bound again "
        "to the cable they keep",
    ).inc(bound)

    result = ProjectionResult(
        topology=topology,
        partition=partition,
        part_to_phys=part_to_phys,
        subswitches=subswitches,
        port_map=port_map,
        host_map=host_map,
        link_realization=link_realization,
        usage=usage,
        port_owners=owners,
    )
    result.validate(sub.logical_switch for sub in fresh)
    return result


class LinkProjection:
    """Projects logical topologies onto a fixed-wired SDT cluster."""

    def __init__(
        self,
        cluster: PhysicalCluster,
        *,
        seed: int = 0,
        free: FreeWiring | None = None,
        metadata_base: int = 1,
        partition_cache=None,
        phys_names: list[str] | None = None,
    ) -> None:
        """``free`` is the wiring this projection may bind (default:
        all of the cluster's); ``metadata_base`` offsets sub-switch
        metadata ids so coexisting topologies never share a tag (§VI-B
        isolation).
        ``partition_cache`` (a
        :class:`~repro.partition.cache.PartitionCache`) memoizes the
        partitioning stage by content hash — re-checking or re-deploying
        an unchanged topology skips the multilevel run entirely.
        ``phys_names`` reorders the part→physical-switch assignment
        (part ``i`` lands on ``phys_names[i]``); it must be a
        permutation of the cluster's switches. The multi-tenant service
        passes an occupancy ranking here so new deployments prefer the
        switches with the most remaining capacity."""
        self.cluster = cluster
        self.seed = seed
        self.free = FreeWiring(cluster.wiring) if free is None else free
        self.metadata_base = metadata_base
        self.partition_cache = partition_cache
        if phys_names is None:
            self.names = cluster.switch_names
        else:
            if sorted(phys_names) != sorted(cluster.switch_names):
                raise ProjectionError(
                    "phys_names must be a permutation of the cluster's "
                    f"switches {sorted(cluster.switch_names)}, "
                    f"got {sorted(phys_names)}"
                )
            self.names = list(phys_names)

    # --- partition ------------------------------------------------------
    def partition_for(
        self, topology: Topology, partition: Partition | None = None
    ) -> Partition:
        """Vet ``topology`` and return ``partition``, or (through the
        partition cache, if any) its partition over this cluster."""
        require_projectable(topology)
        if partition is not None:
            return partition
        parts = min(len(self.names), len(topology.switches))
        partitioner = (
            partition_topology
            if self.partition_cache is None
            else self.partition_cache.partition
        )
        return partitioner(topology, parts, seed=self.seed)

    # --- deficits -------------------------------------------------------
    def ledger(
        self, topology: Topology, partition: Partition, usage=None
    ) -> list[tuple[Resource, tuple[str, ...], int, int]]:
        """The deficit ledger: ``(resource, switches, needed, available)``
        per switch (self-links, host ports) or switch pair (inter-switch
        links) with a demand — self-links first, then inter-switch
        links, then host ports, each in part order. ``available`` counts
        the free cables (:class:`FreeWiring`)."""
        rows = []
        for resource in RESOURCES:
            for parts, needed in sorted(
                resource.demand(topology, partition, usage).items()
            ):
                if isinstance(parts, int):
                    parts = (parts,)
                switches = tuple(self.names[p] for p in parts)
                have = len(self.free.cables(resource, *switches))
                rows.append((resource, switches, needed, have))
        return rows

    # --- feasibility (the controller's "checking function", §V-1) -------
    def check(
        self,
        topology: Topology,
        partition: Partition | None = None,
        usage=None,
    ) -> tuple[Partition, list[str]]:
        """Partition (if needed) and verify resource fit.

        Returns the partition and a list of human-readable deficiencies;
        an empty list means the topology is deployable as-is. The
        deficiency strings name the exact wiring modification required
        (the paper: "the module will inform the user of the necessary
        link modification").
        """
        partition = self.partition_for(topology, partition)
        return partition, [
            f"{'<->'.join(switches)}: needs {needed} {resource.kind}, "
            f"wired {have} ({resource.remedy.format(needed - have)})"
            for resource, switches, needed, have in self.ledger(
                topology, partition, usage
            )
            if needed > have
        ]

    # --- projection ---------------------------------------------------
    def allocate(
        self,
        topology: Topology,
        partition: Partition,
        usage=None,
        free: FreeWiring | None = None,
    ) -> ProjectionResult:
        """:func:`realize` from the empty projection, binding this
        projection's free wiring (or ``free``: the hybrid projector's
        view of the optically augmented plan)."""
        return realize(
            self.free if free is None else free,
            empty_projection(self.names, partition.num_parts),
            topology,
            partition,
            metadata_base=self.metadata_base,
            usage=usage,
        )

    def project(
        self,
        topology: Topology,
        partition: Partition | None = None,
        usage=None,
    ) -> ProjectionResult:
        """Run LP; raises :class:`CapacityError` naming every deficiency
        when the wiring cannot host the topology. ``usage`` (from
        :func:`~repro.core.projection.pruning.route_usage`) restricts
        the projection to the links/hosts a workload can reach."""
        partition, problems = self.check(topology, partition, usage)
        if problems:
            raise CapacityError(
                f"cannot project {topology.name!r}: " + "; ".join(problems)
            )
        return self.allocate(topology, partition, usage)


def plan_inter_switch_reservation(
    topologies: list[Topology],
    num_switches: int,
    *,
    seed: int = 0,
    usages: list | None = None,
) -> dict[str, int]:
    """§IV-B's wiring-reservation rule: partition every topology the
    user intends to run and reserve the *maximum* per-pair inter-switch
    links, max per-switch self-links and host ports across all of them.

    Returns the wiring budget: ``{"inter_links_per_pair": n,
    "self_links_per_switch": m, "hosts_per_switch": h}``.
    """
    if num_switches < 1:
        raise ProjectionError("need at least one physical switch")
    if usages is None:
        usages = [None] * len(topologies)
    if len(usages) != len(topologies):
        raise ProjectionError("usages list must parallel topologies list")
    budget = {resource.budget: 0 for resource in RESOURCES}
    for topo, usage in zip(topologies, usages):
        parts = min(num_switches, len(topo.switches))
        partition = partition_topology(topo, parts, seed=seed)
        for resource in RESOURCES:
            demand = resource.demand(topo, partition, usage)
            # the trailing 0 keeps max() two-argument when nothing is needed
            budget[resource.budget] = max(
                budget[resource.budget], *demand.values(), 0
            )
    return budget
