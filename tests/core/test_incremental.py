"""Incremental reconfiguration: delta staging, caches, convergence (DESIGN.md §5b)."""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

from repro.core import SDTController, TopologyConfig, build_cluster_for
from repro.core.projection.base import PhysPort, SubSwitch
from repro.core.projection.delta import project_delta
from repro.core.projection.linkproj import LinkProjection, empty_projection
from repro.core.columnar import block_columns
from repro.core.rules import RuleSet, synthesize_rules
from repro.hardware import H3C_S6861
from repro.routing import shortest_path_routes
from repro.routing.table import Hop
from repro.telemetry import metrics
from repro.topology import Topology, fat_tree
from repro.topology.diff import link_key, rebuild, removable_switch_links
from repro.topology.graph import Port
from repro.util.errors import ReproError
from tests.proptools import prop_cases, random_topology, seeded_cases

ROOT_SEED = 20260806

FT4 = fat_tree(4)
EDIT_KEY = removable_switch_links(FT4)[0]
FT4_EDITED = rebuild(FT4, drop_links={EDIT_KEY})


def _counter(name: str, **labels) -> float:
    inst = metrics.registry().get(name)
    return inst.value(**labels) if inst is not None else 0.0


def _mod_key(table_id, priority, cookie, match, instructions):
    return (table_id, priority, cookie, repr(match), repr(tuple(instructions)))


def _live_multiset(cluster) -> dict[str, list[tuple]]:
    out = {}
    for name, sw in cluster.switches.items():
        snap = sw.snapshot()
        out[name] = sorted(
            _mod_key(tid, e.priority, e.cookie, e.match, e.instructions)
            for tid, entries in enumerate(snap.tables)
            for e in entries
        )
    return out


def _rules_multiset(rules) -> dict[str, list[tuple]]:
    return {
        sw: sorted(
            _mod_key(m.table_id, m.priority, m.cookie, m.match, m.instructions)
            for m in mods
        )
        for sw, mods in rules.mods.items()
    }


def _assert_converged(controller: SDTController, deployment) -> None:
    """The live switch state is bit-identical to a from-scratch install.

    Two halves of the incremental == from-scratch contract:

    * the delta push converged every switch to exactly the entries a
      full install of ``deployment.rules`` would have produced;
    * synthesis against the replaced generation equals a from-scratch
      recompile of the same projection + routes (reusing old blocks
      never changes the output).
    """
    live = _live_multiset(controller.cluster)
    expected = _rules_multiset(deployment.rules)
    for sw in controller.cluster.switches:
        assert live.get(sw, []) == expected.get(sw, []), (
            f"live state diverges from deployment rules on {sw}"
        )
    scratch = synthesize_rules(
        deployment.projection,
        deployment.routes,
        cookie=deployment.cookie,
    )
    assert _rules_multiset(scratch) == expected
    if deployment.config is not None and deployment.config.routing == "shortest-path":
        assert list(deployment.routes.entries()) == list(
            shortest_path_routes(deployment.topology).entries()
        )


def _rig(*topologies, num_switches=2, spec=H3C_S6861, **kw):
    cluster = build_cluster_for(list(topologies), num_switches, spec, **kw)
    return SDTController(cluster), cluster


# --- the incremental path ---------------------------------------------------

def test_one_link_edit_takes_incremental_path():
    controller, cluster = _rig(FT4)
    dep = controller.deploy(TopologyConfig.from_topology(FT4))
    total = dep.rules.count()
    inc0 = _counter("sdt_controller_reconfigure_mode_total", mode="incremental")
    pushed0 = _counter("sdt_reconfig_rules_pushed_total")

    dep2, elapsed = controller.reconfigure(TopologyConfig.from_topology(FT4_EDITED))

    assert dep2 is dep  # edited in place: same generation
    assert dep2.cookie == dep.cookie
    assert controller.last_commit_strategy == "make-before-break"
    assert _counter(
        "sdt_controller_reconfigure_mode_total", mode="incremental"
    ) == inc0 + 1
    pushed = _counter("sdt_reconfig_rules_pushed_total") - pushed0
    assert 0 < pushed < total  # O(changed links), not O(topology)
    assert elapsed > 0
    _assert_converged(controller, dep2)


def test_noop_reconfigure_pushes_nothing():
    controller, _ = _rig(FT4)
    controller.deploy(TopologyConfig.from_topology(FT4))
    pushed0 = _counter("sdt_reconfig_rules_pushed_total")
    hits0 = _counter("sdt_rules_cache_total", result="hit")
    misses0 = _counter("sdt_rules_cache_total", result="miss")

    dep, _ = controller.reconfigure(TopologyConfig.from_topology(FT4))

    assert _counter("sdt_reconfig_rules_pushed_total") == pushed0
    # every sub-switch is clean: every block handed back, none compiled
    assert _counter("sdt_rules_cache_total", result="hit") - hits0 == len(
        FT4.switches
    )
    assert _counter("sdt_rules_cache_total", result="miss") == misses0
    _assert_converged(controller, dep)


def test_routing_strategy_change_goes_incremental():
    """Same topology, new routing: an empty diff still re-vets routes,
    and a sub-switch whose route entries changed compiles a new block."""
    controller, _ = _rig(FT4)
    cfg = TopologyConfig.from_topology(FT4)
    dep = controller.deploy(cfg)
    hits0 = _counter("sdt_rules_cache_total", result="hit")
    misses0 = _counter("sdt_rules_cache_total", result="miss")
    inc0 = _counter("sdt_controller_reconfigure_mode_total", mode="incremental")
    pushed0 = _counter("sdt_reconfig_rules_pushed_total")

    dep2, _ = controller.reconfigure(replace(cfg, routing="fat-tree-updown"))

    assert dep2 is dep and dep2.cookie == dep.cookie
    assert _counter(
        "sdt_controller_reconfigure_mode_total", mode="incremental"
    ) == inc0 + 1
    hits = _counter("sdt_rules_cache_total", result="hit") - hits0
    misses = _counter("sdt_rules_cache_total", result="miss") - misses0
    assert hits + misses == len(FT4.switches)
    assert misses > 0  # rerouted sub-switches must not reuse stale rules
    assert _counter("sdt_reconfig_rules_pushed_total") > pushed0
    _assert_converged(controller, dep2)


def test_added_host_recompiles_every_block_and_reseeds_partition():
    controller, _ = _rig(FT4, spare_hosts=1)
    cfg = TopologyConfig.from_topology(FT4)
    controller.deploy(cfg)

    edited = fat_tree(4)
    edited.add_host("extra-host")
    edited.connect(edited.switches[0], "extra-host")
    cfg2 = TopologyConfig.from_topology(edited)

    misses0 = _counter("sdt_rules_cache_total", result="miss")
    dep, _ = controller.reconfigure(cfg2)
    # every sub-switch routes to the new destination: all dirty
    assert _counter("sdt_rules_cache_total", result="miss") - misses0 == len(
        edited.switches
    )
    _assert_converged(controller, dep)

    # the partition key sees the host too (it changes a switch radix),
    # so the old entry cannot serve the edited topology — but the
    # incremental path *seeds* the extended partition under the new
    # key, so the warm re-check is a pure hit, not a recompute
    pmiss0 = _counter("sdt_partition_cache_total", result="miss")
    phits0 = _counter("sdt_partition_cache_total", result="hit")
    controller.check(cfg2)
    assert _counter("sdt_partition_cache_total", result="miss") == pmiss0
    assert _counter("sdt_partition_cache_total", result="hit") == phits0 + 1


def test_check_of_unchanged_topology_hits_partition_cache():
    controller, _ = _rig(FT4)
    cfg = TopologyConfig.from_topology(FT4)
    assert controller.check(cfg) == []  # miss: first sight
    phits0 = _counter("sdt_partition_cache_total", result="hit")
    assert controller.check(cfg) == []  # identical inputs: pure hit
    assert _counter("sdt_partition_cache_total", result="hit") == phits0 + 1


HOSTS = {"h1": "10.0.0.1", "h2": "10.0.0.2"}


def _compile(sub: SubSwitch, entries, cookie: int = 1, previous=None):
    """One sub-switch through ``synthesize_rules``, compiled against
    ``previous``: the block its one-switch rule set holds."""
    topology = SimpleNamespace(name="one", switches=["s0"])
    projection = SimpleNamespace(
        topology=topology, subswitches={"s0": sub}, host_map=HOSTS
    )
    wild = {dst: hop for _sw, dst, in_vc, hop in entries if in_vc is None}
    exact = {
        (dst, in_vc): hop for _sw, dst, in_vc, hop in entries if in_vc is not None
    }
    routes = SimpleNamespace(topology=topology, maps_at=lambda sw: (wild, exact))
    rules = synthesize_rules(
        projection, routes, cookie=cookie, previous=previous
    )
    (block,) = rules.blocks
    return block


def test_a_sub_switch_keeps_its_old_block_only_when_its_columns_are_equal():
    def sub(phys="phys0", tag=3, port=5, index=0):
        return SubSwitch("s0", phys, tag, ports={index: PhysPort(phys, port)})

    def row(dst="h1", in_vc=None, vc=0, index=0):
        return [("s0", dst, in_vc, Hop(Port("s0", index), vc))]

    base = _compile(sub(), row())
    previous = RuleSet(cookie=1)
    previous.add_block(base)
    # identical inputs return the very same block object; without the
    # generation they replace, they compile a new one
    assert _compile(sub(), row(), previous=previous) is base
    assert _compile(sub(), row()) is not base

    variants = {
        "new cookie (new generation)": (sub(), row(), 2),
        "rerouted": (sub(), row(dst="h2"), 1),
        "VC change": (sub(), row(in_vc=1), 1),
        "re-projected port": (sub(port=6), row(), 1),
        "moved to another physical switch": (sub(phys="phys1"), row(), 1),
        "re-tagged metadata": (sub(tag=4), row(), 1),
    }
    for what, (s, entries, cookie) in variants.items():
        block = _compile(s, entries, cookie, previous=previous)
        assert block is not base, what
        assert block.columns == block_columns(s, HOSTS, entries, cookie), what

    # a logical port renumbering that leaves every row in place emits
    # the same rules, so it keeps the same block
    assert _compile(sub(index=7), row(index=7), previous=previous) is base


# --- cold-path pinning ------------------------------------------------------

def _assert_cold(controller, cfg, *, cold_before) -> None:
    controller.reconfigure(cfg)
    assert _counter(
        "sdt_controller_reconfigure_mode_total", mode="cold"
    ) == cold_before + 1


def test_flow_override_pins_cold_path():
    controller, _ = _rig(FT4)
    dep = controller.deploy(TopologyConfig.from_topology(FT4))
    host_link = dep.topology.host_links[0]
    sw = (
        host_link.a.node
        if dep.topology.is_switch(host_link.a.node)
        else host_link.b.node
    )
    hosts = dep.topology.hosts
    out_index = next(iter(dep.projection.subswitches[sw].ports))
    controller.install_flow_override(
        dep, sw, src=hosts[0], dst=hosts[-1], out_port_index=out_index
    )
    # overrides live outside ``rules``: a delta swap would strand them
    cold0 = _counter("sdt_controller_reconfigure_mode_total", mode="cold")
    _assert_cold(controller, TopologyConfig.from_topology(FT4_EDITED), cold_before=cold0)


def test_failed_link_pins_cold_path():
    controller, _ = _rig(FT4)
    dep = controller.deploy(TopologyConfig.from_topology(FT4))
    safe = removable_switch_links(dep.topology)[0]
    failed = next(
        l for l in dep.topology.switch_links
        if link_key(*l.endpoints) == safe
    )
    controller.fail_link(dep, failed.index)
    assert dep.failed_links
    cold0 = _counter("sdt_controller_reconfigure_mode_total", mode="cold")
    _assert_cold(controller, TopologyConfig.from_topology(FT4_EDITED), cold_before=cold0)


def test_active_hosts_pin_cold_path():
    controller, _ = _rig(FT4)
    dep = controller.deploy(TopologyConfig.from_topology(FT4))
    cold0 = _counter("sdt_controller_reconfigure_mode_total", mode="cold")
    controller.reconfigure(
        TopologyConfig.from_topology(FT4_EDITED), active_hosts=dep.topology.hosts[:4]
    )
    assert _counter(
        "sdt_controller_reconfigure_mode_total", mode="cold"
    ) == cold0 + 1


def test_node_kind_change_falls_back_to_cold():
    controller, _ = _rig(FT4, num_switches=2)
    base = Topology("kindswap")
    for s in ("a", "b"):
        base.add_switch(s)
    base.connect("a", "b")
    base.add_host("n0")
    base.connect("a", "n0")
    controller.deploy(TopologyConfig.from_topology(base))

    flipped = Topology("kindswap")
    for s in ("a", "b", "n0"):  # n0 is now a switch
        flipped.add_switch(s)
    flipped.connect("a", "b")
    flipped.connect("a", "n0")
    cold0 = _counter("sdt_controller_reconfigure_mode_total", mode="cold")
    _assert_cold(controller, TopologyConfig.from_topology(flipped), cold_before=cold0)


# --- TCAM accounting (the delta must not re-count unchanged rules) ----------

def test_delta_validation_does_not_recount_unchanged_rules():
    """A delta batch's transient peak is steady + additions. With a
    TCAM sized to exactly that, the incremental commit must validate —
    if unchanged live entries were re-counted (2x steady), validation
    would veto it and reconfigure would fall back to the cold path."""

    def run(spec):
        controller, cluster = _rig(FT4, spec=spec)
        dep = controller.deploy(TopologyConfig.from_topology(FT4))
        old = {s: set(m) for s, m in dep.rules.mods.items()}
        steady = {s: sw.num_entries for s, sw in cluster.switches.items()}
        dep, _ = controller.reconfigure(TopologyConfig.from_topology(FT4_EDITED))
        return controller, dep, old, steady

    inc0 = _counter("sdt_controller_reconfigure_mode_total", mode="incremental")
    _, dep, old, steady = run(H3C_S6861)
    assert _counter(
        "sdt_controller_reconfigure_mode_total", mode="incremental"
    ) == inc0 + 1

    adds = {
        s: len(set(dep.rules.mods.get(s, ())) - old.get(s, set()))
        for s in steady
    }
    tight = max(steady[s] + adds[s] for s in steady)
    # sanity: a cold make-before-break swap (old + new coexisting)
    # would NOT fit this TCAM, so only exact delta accounting passes
    assert max(steady[s] + dep.rules.count(s) for s in steady) > tight

    inc1 = _counter("sdt_controller_reconfigure_mode_total", mode="incremental")
    controller, dep2, _, _ = run(
        replace(H3C_S6861, flow_table_capacity=tight)
    )
    assert _counter(
        "sdt_controller_reconfigure_mode_total", mode="incremental"
    ) == inc1 + 1
    assert dep2.cookie == 1  # still the original generation, no cold swap
    _assert_converged(controller, dep2)


# --- one allocator -----------------------------------------------------------

def test_cold_projection_is_a_delta_from_the_empty_projection():
    """``LinkProjection.project`` and ``project_delta`` share one
    allocator: projecting cold equals editing the projection of nothing
    (no survivors, nothing kept, tags numbered from the base)."""
    for idx, rng in seeded_cases(prop_cases(40), ROOT_SEED, "cold-is-delta"):
        topo = random_topology(rng, max_switches=12, name=f"rand-{idx}")
        cluster = build_cluster_for([topo], int(rng.integers(1, 4)), H3C_S6861)
        base = int(rng.integers(1, 50))
        names = [str(n) for n in rng.permutation(cluster.switch_names)]
        cold = LinkProjection(
            cluster, metadata_base=base, phys_names=names
        ).project(topo)
        nothing = empty_projection(names, cold.partition.num_parts)
        assert project_delta(
            cluster, nothing, topo, cold.partition, metadata_base=base
        ) == cold, f"case {idx}"


# --- the incremental == from-scratch property -------------------------------

def test_incremental_matches_from_scratch_over_random_edit_sequences():
    """Seeded random topologies (200 by default), each walked through a random
    sequence of link drops/re-adds via ``reconfigure``. After every
    step the live switch state must be bit-identical to a from-scratch
    install of the deployment's rules, and synthesis against the replaced
    generation must equal a from-scratch recompile (see
    ``_assert_converged``)."""
    cases = prop_cases(200)
    incremental_runs = 0
    for idx, rng in seeded_cases(cases, ROOT_SEED, "incremental-vs-scratch"):
        full = random_topology(
            rng,
            min_switches=3,
            max_switches=8,
            max_extra_links=5,
            max_hosts=4,
            name=f"rand-{idx}",
        )
        num_phys = int(rng.integers(1, 4))
        controller, _ = _rig(full, num_switches=num_phys)

        # the rig is wired for ``full``; starting from a pruned variant
        # leaves headroom so later edits can *add* links back
        dropped: list[tuple[str, str]] = []
        for _ in range(int(rng.integers(0, 3))):
            candidates = removable_switch_links(
                rebuild(full, drop_links=set(dropped))
            )
            if not candidates:
                break
            dropped.append(candidates[int(rng.integers(len(candidates)))])
        current = rebuild(full, drop_links=set(dropped))

        try:
            deployment = controller.deploy(TopologyConfig.from_topology(current))
        except ReproError:
            # the pruned variant may partition differently from the
            # plan the rig was wired for; ``full`` itself always fits
            dropped, current = [], full
            deployment = controller.deploy(TopologyConfig.from_topology(current))
        _assert_converged(controller, deployment)

        for _ in range(int(rng.integers(1, 4))):
            previous, prev_dropped = current, list(dropped)
            removable = removable_switch_links(current)
            readd = dropped and (not removable or int(rng.integers(2)) == 0)
            if readd:
                key = dropped.pop(int(rng.integers(len(dropped))))
                current = rebuild(current, add_links=[key])
            elif removable:
                key = removable[int(rng.integers(len(removable)))]
                dropped.append(key)
                current = rebuild(current, drop_links={key})
            else:
                break
            inc0 = _counter(
                "sdt_controller_reconfigure_mode_total", mode="incremental"
            )
            try:
                deployment, _ = controller.reconfigure(TopologyConfig.from_topology(current))
            except ReproError:
                # the rig was wired for one partition of ``full``; some
                # edits genuinely exceed its inter-switch wiring. The
                # refusal must leave the live deployment untouched.
                current, dropped = previous, prev_dropped
                _assert_converged(controller, deployment)
                continue
            incremental_runs += int(
                _counter(
                    "sdt_controller_reconfigure_mode_total",
                    mode="incremental",
                )
                - inc0
            )
            assert deployment is not None, f"case {idx}: reconfigure failed"
            _assert_converged(controller, deployment)
    # the property must actually exercise the incremental path, not
    # trivially pass through cold fallbacks
    assert incremental_runs >= cases // 2, (
        f"only {incremental_runs} of the random edits ran incrementally"
    )
