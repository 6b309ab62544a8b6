"""Route-usage pruning (partial projection)."""

import pytest

from repro.core.projection import LinkProjection, full_usage, route_usage
from repro.hardware import EVAL_256x10G, PhysicalCluster
from repro.routing import routes_for
from repro.topology import torus3d
from repro.util.errors import ProjectionError


@pytest.fixture(scope="module")
def torus444():
    return torus3d(4, 4, 4)


@pytest.fixture(scope="module")
def torus_routes(torus444):
    return routes_for(torus444)


def test_full_usage_covers_everything(torus444):
    u = full_usage(torus444)
    assert len(u.links) == len(torus444.links)
    assert u.switches == frozenset(torus444.switches)


def test_route_usage_subset(torus444, torus_routes):
    active = torus444.hosts[:8]
    u = route_usage(torus444, torus_routes, active)
    assert u.hosts == frozenset(active)
    assert len(u.links) < len(torus444.links)
    full = route_usage(torus444, torus_routes)  # all hosts
    assert u.links <= full.links


def test_route_usage_contains_all_route_links(torus444, torus_routes):
    active = torus444.hosts[:6]
    u = route_usage(torus444, torus_routes, active)
    for src in active:
        for dst in active:
            for node, _hop, link, _nxt in torus_routes.walk(src, dst):
                assert u.uses_link(link.index)
                assert node in u.switches


def test_route_usage_rejects_non_host(torus444, torus_routes):
    with pytest.raises(ProjectionError, match="not a host"):
        route_usage(torus444, torus_routes, ["s0-0-0"])


def test_pruned_projection_fits_where_full_does_not(torus444, torus_routes):
    cluster = PhysicalCluster.build(3, EVAL_256x10G, hosts_per_switch=16,
                                    inter_links_per_pair=48)
    lp = LinkProjection(cluster)
    active = torus444.hosts[:12]
    usage = route_usage(torus444, torus_routes, active)
    result = lp.project(torus444, usage=usage)
    result.validate()
    # unused hosts got no binding, used ones did
    assert set(result.host_map) == set(active)


def test_pruned_projection_validates_only_used(torus444, torus_routes):
    cluster = PhysicalCluster.build(3, EVAL_256x10G, hosts_per_switch=16,
                                    inter_links_per_pair=48)
    usage = route_usage(torus444, torus_routes, torus444.hosts[:4])
    result = LinkProjection(cluster).project(torus444, usage=usage)
    realized = set(result.link_realization)
    assert realized == set(
        l.index for l in torus444.links if usage.uses_link(l.index)
    )
