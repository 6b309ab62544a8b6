"""An edit walks only what it changes, and changes nothing else
(DESIGN.md §5b).

A custom config whose surviving links keep their live order is diffed
off its lists (:meth:`TopologyConfig.diff_from`) and spliced from the
live topology (:meth:`TopologyConfig.splice`), and
:func:`~repro.core.projection.delta.project_delta` allocates and
validates only the links and sub-switches the diff touches. Seeded
edit walks — link drops, re-adds and restores, host and switch
additions and removals, one reordered config that must fall back to
the full build — check at every step that

* the spliced topology equals ``config.build()``, link by link and
  port by port, and its diff equals :func:`diff_topologies`;
* the projection equals, field by field, the projection of the
  allocator that re-binds every link (:func:`_full_walk`, the allocator
  as it stood before edits were spliced), and on the named walks its
  digest equals the one that allocator produced for the same step.

Mutants — a new cable on a survivor's physical port, a re-bound port on
another physical switch, an edit that disconnects the topology — are
refused with the errors the full walk raised. ``SDT_PROP_CASES`` scales
the random walks.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from repro.core import SDTController, TopologyConfig, build_cluster_for
from repro.core.projection.base import PhysPort, ProjectionResult, SubSwitch
from repro.core.projection.delta import project_delta
from repro.core.projection.linkproj import LinkProjection
from repro.hardware import EVAL_256x10G, H3C_S6861
from repro.hardware.wiring import SelfLink
from repro.partition.cache import extend_partition
from repro.topology import chain, dragonfly, fat_tree, torus2d
from repro.topology.diff import (
    diff_topologies,
    link_key,
    removable_switch_links,
)
from repro.util.errors import (
    CapacityError,
    ProjectionError,
    ReproError,
    TopologyError,
)
from repro.util.rng import make_rng
from tests.proptools import prop_cases, random_topology, seeded_cases

ROOT_SEED = 20261018


def _ring(n: int):
    ring = chain(n)
    ring.name = f"ring-{n}"
    ring.connect(f"s{n - 1}", "s0")
    return ring


#: name -> (base topology, physical switches)
BASES = {
    "fattree-k4": (lambda: fat_tree(4), 2),
    "fattree-k8": (lambda: fat_tree(8), 4),
    "torus-6x6": (lambda: torus2d(6, 6), 3),
    "ring-20": (lambda: _ring(20), 2),
    "dragonfly-4-9-2": (lambda: dragonfly(4, 9, 2), 4),
}

#: the named walks' steps, in order
SCHEDULE = (
    "drop", "drop", "readd", "add_host", "drop", "remove_host",
    "add_switch", "reorder", "readd", "add_host", "remove_switch",
    "drop", "restore", "add_switch", "drop", "restore",
)
KINDS = sorted(set(SCHEDULE))

#: per named walk, a digest over its steps' projection digests, taken
#: with the allocator that re-bound every link on every edit
PINNED = {
    "fattree-k4": "4cd3fd54d91a0df93331fbae",
    "fattree-k8": "d2403604b5823dd3546957fa",
    "torus-6x6": "05bbc27d47cbaf16ef1a64e1",
    "ring-20": "dbb591e2e5073f95918839da",
    "dragonfly-4-9-2": "47611c940ea55eeb9b162c56",
}


def _params(topology) -> dict:
    return {
        "name": topology.name,
        "switches": list(topology.switches),
        "hosts": list(topology.hosts),
        "links": [list(link.endpoints) for link in topology.links],
    }


def _config(params: dict) -> TopologyConfig:
    return TopologyConfig(
        "custom", params, routing="shortest-path", lossless=False
    )


class _Walk:
    """Seeded edits of a base topology's custom config."""

    def __init__(self, base, rng) -> None:
        self.base = _params(base)
        self.rng = rng
        self.dropped: list[list[str]] = []
        self.fresh = 0

    def _pos(self, seq: list) -> int:
        return int(self.rng.integers(0, len(seq) + 1))

    def step(self, kind: str, params: dict) -> dict | None:
        """The edited params, or None when ``kind`` does not apply."""
        rng = self.rng
        p = {
            "name": params["name"],
            "switches": list(params["switches"]),
            "hosts": list(params["hosts"]),
            "links": [list(link) for link in params["links"]],
        }
        if kind == "drop":
            candidates = removable_switch_links(_config(params).build())
            if not candidates:
                return None
            key = candidates[int(rng.integers(len(candidates)))]
            self.dropped += [l for l in p["links"] if link_key(*l) == key]
            p["links"] = [l for l in p["links"] if link_key(*l) != key]
        elif kind == "readd":
            if not self.dropped:
                return None
            link = self.dropped.pop(int(rng.integers(len(self.dropped))))
            p["links"].insert(self._pos(p["links"]), link)
        elif kind == "restore":
            self.dropped = []
            return _step_copy(self.base)
        elif kind == "add_host":
            self.fresh += 1
            host = f"hx{self.fresh}"
            sw = p["switches"][int(rng.integers(len(p["switches"])))]
            p["hosts"].insert(self._pos(p["hosts"]), host)
            p["links"].insert(self._pos(p["links"]), [sw, host])
        elif kind == "remove_host":
            if not p["hosts"]:
                return None
            host = p["hosts"].pop(int(rng.integers(len(p["hosts"]))))
            p["links"] = [l for l in p["links"] if host not in l]
        elif kind == "add_switch":
            self.fresh += 1
            sw = f"x{self.fresh}"
            old = list(p["switches"])
            a, b = (old[int(i)] for i in rng.choice(len(old), 2, replace=False))
            p["switches"].insert(self._pos(p["switches"]), sw)
            p["links"].insert(self._pos(p["links"]), [sw, a])
            p["links"].insert(self._pos(p["links"]), [b, sw])
        elif kind == "remove_switch":
            added = [s for s in p["switches"] if s.startswith("x")]
            if not added:
                return None
            sw = added[int(rng.integers(len(added)))]
            p["switches"].remove(sw)
            hosts = {
                h for l in p["links"] if sw in l for h in l if h in p["hosts"]
            }
            p["hosts"] = [h for h in p["hosts"] if h not in hosts]
            p["links"] = [
                l for l in p["links"] if sw not in l and not hosts & set(l)
            ]
        elif kind == "reorder":
            links = p["links"]
            i, j = sorted(
                int(x) for x in rng.choice(len(links), 2, replace=False)
            )
            links[i], links[j] = links[j], links[i]
        else:
            raise ValueError(kind)
        return p


def _step_copy(params: dict) -> dict:
    return {
        k: (list(v) if isinstance(v, list) else v) for k, v in params.items()
    }


def _digest(projection: ProjectionResult) -> str:
    """Every field of a projection, canonically ordered."""
    topo = projection.topology
    doc = {
        "topology": [
            topo.name, topo.switches, topo.hosts,
            [
                [l.index, l.a.node, l.a.index, l.b.node, l.b.index]
                for l in topo.links
            ],
        ],
        "partition": [
            sorted(projection.partition.assignment.items()),
            projection.partition.num_parts,
        ],
        "part_to_phys": sorted(projection.part_to_phys.items()),
        "subswitches": [
            [
                name, s.phys_switch, s.metadata_id,
                sorted((i, p.switch, p.port) for i, p in s.ports.items()),
            ]
            for name, s in sorted(projection.subswitches.items())
        ],
        "port_map": sorted(
            (lp.node, lp.index, pp.switch, pp.port)
            for lp, pp in projection.port_map.items()
        ),
        "host_map": sorted(projection.host_map.items()),
        "link_realization": sorted(
            (i, repr(c)) for i, c in projection.link_realization.items()
        ),
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


# --- the oracle ---------------------------------------------------------------

def _full_walk(
    wiring, old: ProjectionResult, topology, partition, *, metadata_base: int
) -> ProjectionResult:
    """The allocator before edits were spliced: every link of
    ``topology`` walked, a kept link re-bound to its old cable and
    physical ports, an added one given the first cable no kept link
    holds."""
    part_to_phys = dict(old.part_to_phys)
    old_links = {link_key(*l.endpoints): l for l in old.topology.links}
    was_of = {
        link.index: old_links[key]
        for link in topology.links
        if (key := link_key(*link.endpoints)) in old_links
    }
    taken = {old.link_realization[was.index] for was in was_of.values()}
    pools: dict[tuple, list] = {}

    def take(wired, *switches):
        pool = pools.get((wired, switches))
        if pool is None:
            pool = pools[wired, switches] = [
                c for c in wired(wiring, *switches) if c not in taken
            ]
        if not pool:
            raise CapacityError(f"{switches}: pool ran dry")
        return pool.pop(0)

    next_meta = metadata_base
    subswitches = {}
    for sw in topology.switches:
        old_sub = old.subswitches.get(sw)
        if old_sub is None:
            meta, next_meta = next_meta, next_meta + 1
        else:
            meta = old_sub.metadata_id
        subswitches[sw] = SubSwitch(
            sw, part_to_phys[partition.part_of(sw)], meta
        )
    port_map, host_map, link_realization = {}, {}, {}
    for link in topology.links:
        ends = [p for p in (link.a, link.b) if p.node in subswitches]
        homes = [subswitches[p.node].phys_switch for p in ends]
        was = was_of.get(link.index)
        if was is not None:
            cable = old.link_realization[was.index]
            phys = [old.port_map[was.port_on(p.node)] for p in ends]
        elif len(ends) == 1:
            cable = take(type(wiring).hosts_of, *homes)
            phys = [PhysPort(cable.switch, cable.port)]
        elif homes[0] == homes[1]:
            cable = take(type(wiring).self_links_of, homes[0])
            phys = [
                PhysPort(cable.switch, cable.port_a),
                PhysPort(cable.switch, cable.port_b),
            ]
        else:
            cable = take(type(wiring).inter_links_between, *sorted(homes))
            phys = [PhysPort(n, cable.endpoint_on(n)) for n in homes]
        for logical, physical in zip(ends, phys):
            port_map[logical] = physical
            subswitches[logical.node].ports[logical.index] = physical
        link_realization[link.index] = cable
        if len(ends) == 1:
            host_map[link.other(ends[0].node)] = cable.host
    return ProjectionResult(
        topology=topology,
        partition=partition,
        part_to_phys=part_to_phys,
        subswitches=subswitches,
        port_map=port_map,
        host_map=host_map,
        link_realization=link_realization,
    )


# --- one step ------------------------------------------------------------------

def _edit(live: ProjectionResult, config: TopologyConfig):
    """The edited topology and its diff, the way the controller makes
    them: spliced when the config keeps the live order, built else."""
    built = config.build()
    diff = config.diff_from(live.topology)
    if diff is None:
        topology, diff = built, diff_topologies(live.topology, built)
    else:
        topology = config.splice(live.topology, diff)
    # link by link, port by port, then every cache
    assert [(l.index, l.a, l.b) for l in topology.links] == [
        (l.index, l.a, l.b) for l in built.links
    ]
    assert {n: topology.ports_of(n) for n in topology.nodes} == {
        n: built.ports_of(n) for n in built.nodes
    }
    assert topology == built
    assert diff == diff_topologies(live.topology, built)
    return topology, diff


def _project(cluster, live, config, next_meta, where):
    """One edit step: the projection and its digest, or the refusal —
    which the full walk must make too."""
    topology, diff = _edit(live, config)
    partition = extend_partition(live.partition, topology)
    try:
        oracle = _full_walk(
            cluster.wiring, live, topology, partition,
            metadata_base=next_meta,
        )
    except CapacityError:
        oracle = None
    try:
        projection = project_delta(
            cluster, live, topology, partition,
            metadata_base=next_meta, diff=diff,
        )
    except ReproError as exc:
        assert oracle is None, f"{where}: {exc}"
        return None, diff, f"refused:{type(exc).__name__}"
    assert oracle is not None, where
    assert projection == oracle, where
    # the orders netsim and snapshots iterate in
    assert list(projection.subswitches) == list(oracle.subswitches), where
    assert list(projection.link_realization) == list(
        oracle.link_realization
    ), where
    return projection, diff, _digest(projection)


def _walk(base, nphys, rng, kinds, spec=EVAL_256x10G, where=""):
    """Walk ``kinds`` from a cold projection of ``base``; the step
    digests, and the kinds that fell back to the full build."""
    cluster = build_cluster_for([base], nphys, spec, spare_hosts=2)
    live = LinkProjection(cluster).project(base)
    next_meta = 1 + len(base.switches)
    walk = _Walk(base, rng)
    params = _params(base)
    steps = [_digest(live)]
    fell_back = []
    for n, kind in enumerate(kinds):
        new = walk.step(kind, params)
        if new is None:
            steps.append(f"{kind}:skip")
            continue
        config = _config(new)
        if config.diff_from(live.topology) is None:
            fell_back.append(kind)
        projection, diff, digest = _project(
            cluster, live, config, next_meta, f"{where} step {n} ({kind})"
        )
        steps.append(f"{kind}:{digest}")
        if projection is not None:
            next_meta += len(diff.added_switches)
            live, params = projection, new
    return steps, fell_back


# --- the properties ---------------------------------------------------------------

@pytest.mark.parametrize("name", list(BASES))
def test_named_walks_equal_the_full_walk(name):
    build, nphys = BASES[name]
    steps, fell_back = _walk(
        build(), nphys, make_rng(ROOT_SEED, name), SCHEDULE, where=name
    )
    digest = hashlib.sha256("\n".join(steps).encode()).hexdigest()[:24]
    assert digest == PINNED[name]
    # the reordered config fell back; a plain edit never does
    assert "reorder" in fell_back
    assert set(fell_back) <= {"reorder", "restore"}


def test_random_walks_equal_the_full_walk():
    for idx, rng in seeded_cases(prop_cases(30), ROOT_SEED, "random-walk"):
        base = random_topology(
            rng, min_switches=3, max_switches=12, max_extra_links=8,
            max_hosts=6, name=f"rand-{idx}",
        )
        kinds = [KINDS[int(rng.integers(len(KINDS)))] for _ in range(8)]
        _walk(
            base, int(rng.integers(1, 4)), rng, kinds, spec=H3C_S6861,
            where=f"case {idx}",
        )


# --- mutants ------------------------------------------------------------------------

def _live_k4():
    base = fat_tree(4)
    cluster = build_cluster_for([base], 2, EVAL_256x10G, spare_hosts=2)
    return cluster, LinkProjection(cluster).project(base)


def _edited(live, edit):
    params = _params(live.topology)
    edit(params)
    config = _config(params)
    diff = config.diff_from(live.topology)
    assert diff is not None  # the spliced path
    topology = config.splice(live.topology, diff)
    return topology, diff, extend_partition(live.partition, topology)


def test_a_new_cable_on_a_survivors_port_is_refused():
    cluster, live = _live_k4()
    part = live.partition
    a, b = next(
        (a, b)
        for a in live.topology.switches
        for b in live.topology.switches
        if a < b
        and part.part_of(a) == part.part_of(b)
        and live.topology.find_link(a, b) is None
    )
    topology, diff, partition = _edited(
        live, lambda p: p["links"].append([a, b])
    )
    phys = live.subswitches[a].phys_switch
    held = next(pp for pp in live.port_map.values() if pp.switch == phys)
    free = next(
        c for c in cluster.wiring.self_links_of(phys)
        if c not in live.link_realization.values()
    )
    # a cable whose first port is free but whose second is held
    cluster.wiring.self_links.insert(
        0, SelfLink(phys, free.port_a, held.port)
    )
    with pytest.raises(ProjectionError, match="mapped twice"):
        project_delta(
            cluster, live, topology, partition,
            metadata_base=100, diff=diff,
        )


def test_a_rebound_port_on_another_switch_is_refused():
    cluster, live = _live_k4()
    key = removable_switch_links(live.topology)[0]
    topology, diff, partition = _edited(
        live,
        lambda p: p.update(
            links=[l for l in p["links"] if link_key(*l) != key]
        ),
    )
    # a survivor at the edited switch, bound off its physical switch
    sw = key[0]
    port = next(
        l.port_on(sw) for l in live.topology.links_of(sw)
        if link_key(*l.endpoints) != key
    )
    other = next(
        n for n in cluster.switch_names
        if n != live.subswitches[sw].phys_switch
    )
    mutant = replace(
        live,
        port_map={
            **live.port_map, port: PhysPort(other, live.port_map[port].port)
        },
        port_owners=None,
    )
    with pytest.raises(ProjectionError, match="off-switch"):
        project_delta(
            cluster, mutant, topology, partition,
            metadata_base=100, diff=diff,
        )


def test_an_edit_that_disconnects_the_topology_is_refused():
    ring = _ring(6)
    params = _params(ring)
    params["links"] = [
        l for l in params["links"]
        if link_key(*l) not in {("s0", "s1"), ("s3", "s4")}
    ]
    config = _config(params)
    diff = config.diff_from(ring)
    assert diff is not None
    with pytest.raises(TopologyError, match="not connected"):
        config.splice(ring, diff)
    with pytest.raises(TopologyError, match="not connected"):
        config.build()

    # and through the controller: refused, the live deployment kept
    cluster = build_cluster_for([ring], 2, H3C_S6861)
    controller = SDTController(cluster)
    deployment = controller.deploy(_config(_params(ring)))
    with pytest.raises(TopologyError, match="not connected"):
        controller.reconfigure(config)
    assert controller.deployments == [deployment]
    assert deployment.topology == ring
