"""What a 1-link edit re-derives (DESIGN.md §5b, dirty set).

When an edit keeps the deployment's routing strategy, the incremental
path repairs the live route table instead of recomputing it, and hands
every sub-switch whose routes did not move and whose projection is
unchanged its old block without resolving its rows again. Both shortcuts must be invisible: the
routes equal the strategy's full output, the rules equal a cache-free
synthesis, and a table the strategy did not build is never repaired.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro.core.rules as rules_module
from repro.core import SDTController, TopologyConfig, build_cluster_for
from repro.core.rules import synthesize_rules
from repro.hardware import H3C_S6861
from repro.routing import fattree_updown_routes, shortest_path_routes
from repro.routing.table import RouteTable
from repro.topology import fat_tree
from repro.topology.diff import rebuild, removable_switch_links
from tests.core.test_incremental import _assert_converged

FT4 = fat_tree(4)
EDITED = rebuild(FT4, drop_links={removable_switch_links(FT4)[0]})


@pytest.fixture
def resolved(monkeypatch) -> list[str]:
    """The sub-switches whose rows synthesis resolves, in call order."""
    calls: list[str] = []
    original = rules_module.block_columns

    def counting(sub, *args, **kwargs):
        calls.append(sub.logical_switch)
        return original(sub, *args, **kwargs)

    monkeypatch.setattr(rules_module, "block_columns", counting)
    return calls


def _deploy(config: TopologyConfig):
    controller = SDTController(build_cluster_for([FT4], 2, H3C_S6861))
    return controller, controller.deploy(config)


def _entries(routes: RouteTable) -> list:
    return list(routes.entries())


def test_a_route_update_is_not_repaired():
    """``update_routes`` installs a hand-built table under a
    shortest-path config: the next edit must recompute the routes, not
    repair a table the strategy never built."""
    controller, dep = _deploy(TopologyConfig.from_topology(FT4))
    hand = RouteTable(dep.topology)
    for sw, dst, _in_vc, hop in fattree_updown_routes(dep.topology).entries():
        hand.set_hop(sw, dst, hop)
    assert _entries(hand) != _entries(shortest_path_routes(dep.topology))
    controller.update_routes(dep, hand)
    assert dep.config.routing == "shortest-path"

    edited, _ = controller.reconfigure(TopologyConfig.from_topology(EDITED))

    assert edited is dep  # the incremental path edits in place
    assert _entries(dep.routes) == _entries(shortest_path_routes(EDITED))
    _assert_converged(controller, dep)


def test_clean_subswitches_keep_their_block(resolved):
    controller, dep = _deploy(TopologyConfig.from_topology(FT4))
    old_routes, old_projection = dep.routes, dep.projection
    old_blocks = dict(zip(FT4.switches, dep.rules.blocks))
    del resolved[:]

    dep, _ = controller.reconfigure(TopologyConfig.from_topology(EDITED))

    new_blocks = dict(zip(EDITED.switches, dep.rules.blocks))
    clean = {
        sw for sw in EDITED.switches
        if dep.routes.entries_at(sw) == old_routes.entries_at(sw)
        and dep.projection.subswitches[sw] == old_projection.subswitches[sw]
    }
    assert 0 < len(clean) < len(EDITED.switches)
    for sw in clean:
        assert new_blocks[sw] is old_blocks[sw], sw
    # only the dirty sub-switches' rows were resolved
    assert sorted(resolved) == sorted(set(EDITED.switches) - clean)
    scratch = synthesize_rules(
        dep.projection, shortest_path_routes(EDITED), cookie=dep.cookie
    )
    assert [b.columns for b in scratch.blocks] == [
        b.columns for b in dep.rules.blocks
    ]
    _assert_converged(controller, dep)


@pytest.mark.parametrize(
    "before, after", [("shortest-path", "fat-tree-updown"),
                      ("fat-tree-updown", "shortest-path")],
)
def test_a_strategy_change_resolves_every_subswitch(resolved, before, after):
    cfg = TopologyConfig.from_topology(FT4)
    controller, dep = _deploy(replace(cfg, routing=before))
    del resolved[:]

    dep, _ = controller.reconfigure(replace(cfg, routing=after))

    assert sorted(resolved) == sorted(FT4.switches)
    _assert_converged(controller, dep)


#: a second uplink for agg0-0: up/down refuses every fat-tree link
#: drop (some core loses its one way down into a pod), but routes an
#: added link
UPLINK = rebuild(FT4, add_links=[("agg0-0", "core1-0")])


@pytest.mark.parametrize(
    "before, after", [("fat-tree-updown", "fat-tree-updown"),
                      ("auto", "fat-tree-updown")],
)
def test_any_strategy_is_repaired_when_it_stays(resolved, before, after):
    """A routing name that resolves to the live table's strategy
    repairs it: the routes equal the strategy's full output, and only
    the sub-switches whose routes or projection moved are resolved."""
    controller = SDTController(build_cluster_for([UPLINK], 4, H3C_S6861))
    dep = controller.deploy(replace(TopologyConfig.from_topology(FT4), routing=before))
    old_routes, old_projection = dep.routes, dep.projection
    del resolved[:]

    edited, _ = controller.reconfigure(
        replace(TopologyConfig.from_topology(UPLINK), routing=after)
    )

    assert edited is dep  # the incremental path edits in place
    assert _entries(dep.routes) == _entries(fattree_updown_routes(UPLINK))
    clean = {
        sw for sw in UPLINK.switches
        if dep.routes.entries_at(sw) == old_routes.entries_at(sw)
        and dep.projection.subswitches[sw] == old_projection.subswitches[sw]
    }
    assert 0 < len(clean) < len(UPLINK.switches)
    assert sorted(resolved) == sorted(set(UPLINK.switches) - clean)
    _assert_converged(controller, dep)
