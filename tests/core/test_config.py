"""Topology configuration files (Fig. 2)."""

import pytest

from repro.core import TopologyConfig
from repro.topology import fat_tree, torus2d
from repro.topology.diff import rebuild, removable_switch_links
from repro.util.errors import ConfigurationError


def test_every_generator_kind_builds():
    cases = [
        ("fat-tree", {"k": 4}, 20),
        ("dragonfly", {"a": 2, "g": 3, "h": 1}, 6),
        ("mesh2d", {"x": 3, "y": 3}, 9),
        ("mesh3d", {"x": 2, "y": 2, "z": 2}, 8),
        ("torus2d", {"x": 3, "y": 3}, 9),
        ("torus3d", {"x": 3, "y": 3, "z": 3}, 27),
        ("chain", {"num_switches": 5}, 5),
        ("zoo", {"name": "Wan000"}, None),
    ]
    for kind, params, switches in cases:
        topo = TopologyConfig(kind, params).build()
        if switches is not None:
            assert len(topo.switches) == switches, kind


def test_custom_topology():
    cfg = TopologyConfig("custom", {
        "name": "mini",
        "switches": ["s0", "s1"],
        "hosts": ["h0"],
        "links": [["s0", "s1"], ["s0", "h0"]],
    })
    topo = cfg.build()
    assert topo.name == "mini"
    assert len(topo.links) == 2


def _edited_fat_tree():
    base = fat_tree(4)
    return rebuild(base, drop_links={removable_switch_links(base)[0]})


@pytest.mark.parametrize(
    "make", [lambda: fat_tree(4), lambda: torus2d(3, 4), _edited_fat_tree],
    ids=["fat-tree", "torus", "edited"],
)
def test_from_topology_round_trips(make):
    topo = make()
    cfg = TopologyConfig.from_topology(topo)
    assert (cfg.kind, cfg.routing, cfg.lossless) == (
        "custom", "shortest-path", False
    )
    built = cfg.build()
    assert built.name == topo.name
    assert built.switches == topo.switches
    assert built.hosts == topo.hosts
    assert [l.endpoints for l in built.links] == [
        l.endpoints for l in topo.links
    ]
    renamed = TopologyConfig.from_topology(
        topo, name="other", lossless=True, monitor_interval=0.5, label="x"
    )
    assert renamed.build().name == "other"
    assert (renamed.lossless, renamed.monitor_interval, renamed.label) == (
        True, 0.5, "x"
    )


def test_unknown_kind_rejected():
    with pytest.raises(ConfigurationError, match="unknown topology kind"):
        TopologyConfig("hypercube", {}).build()


def test_missing_param_reported():
    with pytest.raises(ConfigurationError, match="missing parameter"):
        TopologyConfig("fat-tree", {}).build()


def test_json_roundtrip(tmp_path):
    cfg = TopologyConfig(
        "dragonfly", {"a": 4, "g": 9, "h": 2},
        routing="dragonfly-minimal", lossless=True,
        monitor_interval=0.5, label="exp1",
    )
    path = tmp_path / "cfg.json"
    cfg.save(path)
    loaded = TopologyConfig.load(path)
    assert loaded == cfg


def test_bad_json_rejected():
    with pytest.raises(ConfigurationError, match="bad config JSON"):
        TopologyConfig.from_json("{nope")


def test_unknown_keys_rejected():
    with pytest.raises(ConfigurationError, match="unknown config keys"):
        TopologyConfig.from_json('{"kind": "chain", "speed": 9}')
    with pytest.raises(ConfigurationError, match="unknown config keys"):
        TopologyConfig.from_dict({"kind": "chain", "speed": 9})


def test_kind_required():
    with pytest.raises(ConfigurationError, match="missing required"):
        TopologyConfig.from_json('{"params": {}}')
    with pytest.raises(ConfigurationError, match="missing required"):
        TopologyConfig.from_dict({"params": {}})


def test_defaults():
    cfg = TopologyConfig.from_json('{"kind": "chain"}')
    assert cfg.routing == "auto"
    assert cfg.lossless is True
