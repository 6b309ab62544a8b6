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


def test_a_pruned_cold_edit_traces_its_route_usage_once(monkeypatch):
    """Every staging of a cold edit prunes to the same usage: the
    request, its table and the active hosts are the same for all of
    them, so the usage is traced once per edit, not once per staging."""
    import repro.core.controller.controller as controller_module
    from repro.core import SDTController, TopologyConfig, build_cluster_for
    from repro.core.controller.controller import BREAK_BEFORE_MAKE
    from repro.hardware import H3C_S6861
    from repro.testbed import select_nodes
    from repro.topology import fat_tree, torus2d

    ft4 = TopologyConfig("fat-tree", {"k": 4})
    torus = TopologyConfig("torus2d", {"x": 4, "y": 4})
    # room for one of them at a time: make-before-break cannot fit
    cluster = build_cluster_for([fat_tree(4), torus2d(4, 4)], 2, H3C_S6861)
    controller = SDTController(cluster)
    controller.deploy(ft4)
    calls = []
    traced = controller_module.route_usage

    def counting(*args):
        calls.append(args)
        return traced(*args)

    monkeypatch.setattr(controller_module, "route_usage", counting)
    deployment, _ = controller.reconfigure(
        torus, active_hosts=select_nodes(torus.build(), 6)
    )
    assert controller.last_commit_strategy == BREAK_BEFORE_MAKE
    assert deployment.projection.usage is not None
    assert len(calls) == 1
