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

from repro.routing.strategies import PreparedRule, Step, Strategy, build_routes
from repro.routing.table import RouteTable
from repro.topology.graph import Topology
from repro.util.errors import RoutingError


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


def _digit_rule(topo: Topology) -> PreparedRule:
    """Digit-correcting minimal routes for a BCube(n, k) topology."""
    hosts = topo.hosts
    if not hosts:
        raise RoutingError("BCube topology has no hosts")
    k_plus_1 = len(_host_digits(hosts[0]))

    def rule(dst: str) -> list[Step]:
        dst_digits = _host_digits(dst)
        out: list[Step] = []
        # host entries: exit via the NIC of the first differing level,
        # the highest (digits are a_k..a_0: string position 0 is level k)
        for src in hosts:
            if src == dst:
                continue
            digits = _host_digits(src)
            level = next(
                k_plus_1 - 1 - pos
                for pos in range(k_plus_1) if digits[pos] != dst_digits[pos]
            )
            nics = topo.neighbors(src)
            if level >= len(nics):
                raise RoutingError(f"host {src!r} lacks a level-{level} NIC")
            out.append((src, nics[level], 0))
        # switch entries: hand the packet to the attached host whose
        # level digit matches the destination's
        for sw in topo.switches:
            level, rest = _switch_parts(sw)
            pos = k_plus_1 - 1 - level
            target = f"h{rest[:pos]}{dst_digits[pos]}{rest[pos:]}"
            if topo.find_link(sw, target) is not None:
                out.append((sw, target, 0))
            # else this switch column cannot carry dst traffic
        return out

    return rule, 1


BCUBE = Strategy("bcube", _digit_rule, hosts_forward=True)


def bcube_routes(topo: Topology) -> RouteTable:
    return build_routes(topo, BCUBE)


def _two_level_rule(topo: Topology) -> PreparedRule:
    """2-level HyperBCube routing (Lin et al., ICC 2012).

    Host (i, j) reaches (i2, j2) by fixing the column first (via its row
    switch to the host in its own row and the target column), then the
    row (via that host's column switch) — a fixed two-dimension
    correction order, so one VC is deadlock-free.

    Naming contract (:func:`repro.topology.bcube.hyper_bcube`): hosts
    ``h{i}{j}`` with NIC 0 on ``row{i}`` and NIC 1 on ``col{j}``.
    """
    hosts = topo.hosts

    def coords(host: str) -> tuple[str, str]:
        if not host.startswith("h") or len(host) < 3:
            raise RoutingError(f"{host!r} is not a hyper-bcube host name")
        return host[1], host[2]

    def rule(dst: str) -> list[Step]:
        di, dj = coords(dst)
        out: list[Step] = []
        for src in hosts:
            if src == dst:
                continue
            _si, sj = coords(src)
            # the row NIC until the column is fixed, then the column NIC
            out.append((src, topo.neighbors(src)[0 if sj != dj else 1], 0))
        for sw in topo.switches:
            if sw.startswith("row"):
                target = f"h{sw[3:]}{dj}"
            elif sw.startswith("col"):
                target = f"h{di}{sw[3:]}"
            else:
                raise RoutingError(f"{sw!r} is not a hyper-bcube switch name")
            if topo.find_link(sw, target) is not None:
                out.append((sw, target, 0))
        return out

    return rule, 1


HYPER_BCUBE = Strategy("hyper-bcube", _two_level_rule, hosts_forward=True)


def hyper_bcube_routes(topo: Topology) -> RouteTable:
    return build_routes(topo, HYPER_BCUBE)
