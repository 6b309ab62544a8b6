"""The paper's default fabric — a lossless fat-tree on up/down routing
(Table III) — takes a link drop as an edit and takes it back.

The drop's table is up*/down* on the degraded fat-tree, so Deadlock
Avoidance admits it; the edit stays incremental (same deployment, same
cookie), and the edit back to the intact fat-tree leaves exactly what
the first deploy installed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

from repro.core import SDTController, TopologyConfig, build_cluster_for
from repro.core.controller.controller import MAKE_BEFORE_BREAK
from repro.hardware import EVAL_256x10G
from repro.routing import assert_deadlock_free
from repro.routing.strategies import FATTREE_UPDOWN, build_routes
from repro.topology import fat_tree
from repro.topology.diff import link_key, rebuild


def _lossless_auto(topology) -> TopologyConfig:
    return replace(
        TopologyConfig.from_topology(topology), routing="auto", lossless=True
    )


def _tables(cluster) -> dict[str, Counter]:
    return {
        name: Counter(switch.installed_rules())
        for name, switch in cluster.switches.items()
    }


@pytest.mark.parametrize("k, phys", [(4, 2), (8, 4)], ids=["k4", "k8"])
@pytest.mark.parametrize(
    "drop", [("agg0-0", "core0-0"), ("agg0-0", "edge0-0")], ids=["agg-core", "agg-edge"]
)
def test_a_lossless_updown_fat_tree_takes_a_link_drop(k, phys, drop):
    topo = fat_tree(k)
    cluster = build_cluster_for([topo], phys, EVAL_256x10G)
    controller = SDTController(cluster)
    deployment = controller.deploy(_lossless_auto(topo))
    assert deployment.cookie == 1
    first = _tables(cluster)

    degraded = rebuild(topo, drop_links={link_key(*drop)})
    edited, modeled = controller.edit(deployment, _lossless_auto(degraded))
    assert edited is deployment and edited.lossless
    assert controller.last_commit_strategy == MAKE_BEFORE_BREAK
    assert modeled > 0
    assert list(edited.routes.entries()) == list(
        build_routes(degraded, FATTREE_UPDOWN).entries()
    )
    assert_deadlock_free(edited.routes)
    edited.routes.validate_all_pairs()

    restored, _ = controller.edit(edited, _lossless_auto(topo))
    assert list(restored.routes.entries()) == list(
        build_routes(topo, FATTREE_UPDOWN).entries()
    )
    assert restored.cookie == 1
    assert _tables(cluster) == first
