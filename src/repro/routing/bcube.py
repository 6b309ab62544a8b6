"""BCube routing (Guo et al., SIGCOMM 2009) — server-centric.

BCube servers have ``k+1`` NICs and forward transit traffic themselves;
the n-port switches only bridge servers that differ in one address
digit. Minimal routing corrects address digits one at a time
(BCubeRouting in the paper), alternating host -> switch -> host hops.

We correct digits from the highest level down, which makes the scheme a
dimension-order discipline: the channel dependency graph orders by the
digit being corrected, so a single VC is deadlock-free (verified by the
CDG tests, which include the host transit channels).

Naming contract (see :func:`repro.topology.bcube.bcube`): hosts are
``h<digits>`` (digits ``a_k..a_0``), switches ``sw<level>-<rest>``, and
a host's NIC port index equals its level (ports added level 0..k).
"""

from __future__ import annotations

from repro.routing.table import Hop, RouteTable
from repro.topology.graph import Topology
from repro.util.errors import RoutingError, TopologyError


def _host_digits(host: str) -> str:
    if not host.startswith("h"):
        raise RoutingError(f"{host!r} is not a BCube host name")
    return host[1:]


def _switch_parts(switch: str) -> tuple[int, str]:
    # sw{level}-{rest digits}
    if not switch.startswith("sw") or "-" not in switch:
        raise RoutingError(f"{switch!r} is not a BCube switch name")
    level_str, rest = switch[2:].split("-", 1)
    return int(level_str), rest


def bcube_routes(topo: Topology) -> RouteTable:
    """Digit-correcting minimal routes for a BCube(n, k) topology."""
    hosts = topo.hosts
    if not hosts:
        raise RoutingError("BCube topology has no hosts")
    k_plus_1 = len(_host_digits(hosts[0]))
    table = RouteTable(topo, num_vcs=1, allow_host_forwarding=True)

    def first_diff_level(a: str, b: str) -> int:
        """Highest level whose digit differs (digits are a_k..a_0, so
        string position 0 is level k)."""
        for pos in range(k_plus_1):
            if a[pos] != b[pos]:
                return k_plus_1 - 1 - pos
        raise RoutingError("identical addresses")

    for dst in hosts:
        dst_digits = _host_digits(dst)

        # host entries: exit via the NIC of the first differing level
        for src in hosts:
            if src == dst:
                continue
            digits = _host_digits(src)
            level = first_diff_level(digits, dst_digits)
            ports = topo.ports_of(src)
            if level >= len(ports):
                raise RoutingError(
                    f"host {src!r} lacks a level-{level} NIC"
                )
            table.set_hop(src, dst, Hop(ports[level], 0))

        # switch entries: hand the packet to the attached host whose
        # level digit matches the destination's
        for sw in topo.switches:
            level, rest = _switch_parts(sw)
            pos = k_plus_1 - 1 - level
            target_digits = rest[:pos] + dst_digits[pos] + rest[pos:]
            target_host = f"h{target_digits}"
            try:
                link = topo.link_between(sw, target_host)
            except TopologyError:
                continue  # this switch column cannot carry dst traffic
            table.set_hop(sw, dst, Hop(link.port_on(sw), 0))
    return table


def hyper_bcube_routes(topo: Topology) -> RouteTable:
    """2-level HyperBCube routing (Lin et al., ICC 2012).

    Host (i, j) reaches (i2, j2) by fixing the column first (via its row
    switch to the host in its own row and the target column), then the
    row (via that host's column switch) — a fixed two-dimension
    correction order, so one VC is deadlock-free.

    Naming contract (:func:`repro.topology.bcube.hyper_bcube`): hosts
    ``h{i}{j}`` with NIC 0 on ``row{i}`` and NIC 1 on ``col{j}``.
    """
    table = RouteTable(topo, num_vcs=1, allow_host_forwarding=True)
    hosts = topo.hosts

    def coords(host: str) -> tuple[str, str]:
        if not host.startswith("h") or len(host) < 3:
            raise RoutingError(f"{host!r} is not a hyper-bcube host name")
        return host[1], host[2]

    for dst in hosts:
        di, dj = coords(dst)
        for src in hosts:
            if src == dst:
                continue
            si, sj = coords(src)
            ports = topo.ports_of(src)
            if sj != dj:
                table.set_hop(src, dst, Hop(ports[0], 0))  # row NIC
            else:
                table.set_hop(src, dst, Hop(ports[1], 0))  # column NIC
        for sw in topo.switches:
            if sw.startswith("row"):
                i = sw[3:]
                target = f"h{i}{dj}"
            elif sw.startswith("col"):
                j = sw[3:]
                target = f"h{di}{j}"
            else:
                raise RoutingError(f"{sw!r} is not a hyper-bcube switch name")
            try:
                link = topo.link_between(sw, target)
            except TopologyError:
                continue
            table.set_hop(sw, dst, Hop(link.port_on(sw), 0))
    return table
