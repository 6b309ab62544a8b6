"""Shortest-path repair equals a full recompute.

``repair_shortest_path`` derives the table of an edited topology from
the live one, running the BFS again only for the destination switches
whose tree the edit can change. Over seeded walks of link drops,
re-adds (the link comes back last, on new port numbers) and restores of
an earlier topology (links come back where they were), every repaired
table must equal ``shortest_path_routes`` of the new topology entry for
entry and in order, and the switches it reports moved must cover every
switch whose entries changed.
"""

from __future__ import annotations

from repro.routing.strategies import repair_shortest_path, shortest_path_routes
from repro.topology import dragonfly, fat_tree, torus2d
from repro.topology.diff import (
    diff_topologies,
    link_keys,
    rebuild,
    removable_switch_links,
)
from repro.topology.graph import Topology
from repro.topology.zoo import build_zoo_topology, zoo_entry
from tests.proptools import prop_cases, random_topology, seeded_cases

ROOT_SEED = 20261017
STEPS = 6

TOPOLOGIES = {
    "fat-tree-k4": lambda: fat_tree(4),
    "fat-tree-k8": lambda: fat_tree(8),
    "torus2d-5x5": lambda: torus2d(5, 5),
    "dragonfly-a4g9h2": lambda: dragonfly(4, 9, 2),
    "zoo-Interoute": lambda: build_zoo_topology(
        zoo_entry("Interoute"), hosts_per_switch=1
    ),
}


def _walk(rng, base: Topology):
    """Seeded edit steps from ``base``: ``(old, new)`` topology pairs.
    Each step drops a removable link, re-adds a dropped one last, or
    restores an earlier topology of the walk."""
    history = [base]
    current, dropped = base, []
    for _ in range(STEPS):
        choice = int(rng.integers(3))
        if choice == 0 and dropped:
            key = dropped.pop(int(rng.integers(len(dropped))))
            edited = rebuild(current, add_links=[key])
        elif choice == 1 and len(history) > 1:
            edited = history[int(rng.integers(len(history) - 1))]
            dropped = sorted(link_keys(base) - link_keys(edited))
        else:
            removable = removable_switch_links(current)
            if not removable:
                continue
            key = removable[int(rng.integers(len(removable)))]
            dropped.append(key)
            edited = rebuild(current, drop_links={key})
        yield current, edited
        history.append(edited)
        current = edited


def _entries_by_switch(table) -> dict[str, list]:
    out: dict[str, list] = {}
    for entry in table.entries():
        out.setdefault(entry[0], []).append(entry)
    return out


def _check_walk(base: Topology, rng, label: str) -> int:
    """Walk ``base``, repairing step by step; returns how many steps
    were repaired without the full-strategy fallback."""
    table = shortest_path_routes(base)
    before = _entries_by_switch(table)
    repaired_steps = 0
    for step, (old, new) in enumerate(_walk(rng, base)):
        table.entries_at(new.switches[0])  # bucket it: repairs carry buckets
        repaired, moved = repair_shortest_path(
            table, new, diff_topologies(old, new)
        )
        full = shortest_path_routes(new)
        where = f"{label} step {step}"
        assert list(repaired.entries()) == list(full.entries()), where
        after = _entries_by_switch(repaired)
        changed = {sw for sw in after if after[sw] != before.get(sw)}
        assert changed <= moved, f"{where}: unreported {changed - moved}"
        for sw in new.switches:
            assert repaired.entries_at(sw) == after.get(sw, []), where
        repaired_steps += moved != frozenset(new.switches)
        table, before = repaired, after
    return repaired_steps


def test_repair_equals_full_recompute():
    """Walks on the named topologies, one after the other."""
    bases = {name: build() for name, build in TOPOLOGIES.items()}
    repaired_steps: dict[str, int] = {}
    for idx, rng in seeded_cases(prop_cases(10), ROOT_SEED, "named"):
        name = list(bases)[idx % len(bases)]
        repaired_steps[name] = repaired_steps.get(name, 0) + _check_walk(
            bases[name], rng, f"{name} case {idx}"
        )
    # the property must exercise the repair, not only its fallback
    assert all(repaired_steps.values()), repaired_steps


def test_repair_equals_full_recompute_on_random_topologies():
    for idx, rng in seeded_cases(prop_cases(60), ROOT_SEED, "random"):
        base = random_topology(
            rng, min_switches=3, max_switches=12, max_extra_links=8,
            max_hosts=8, name=f"rand-{idx}",
        )
        _check_walk(base, rng, f"random case {idx}")


def test_reordered_links_fall_back_to_the_full_strategy():
    """The same links in another order renumber ports with an empty
    diff: the repair must notice and recompute everything."""
    base = fat_tree(4)
    reordered = Topology(base.name)
    for sw in base.switches:
        reordered.add_switch(sw)
    for h in base.hosts:
        reordered.add_host(h)
    for link in reversed(base.links):
        reordered.connect(link.a.node, link.b.node)
    diff = diff_topologies(base, reordered)
    assert diff.is_empty()
    repaired, moved = repair_shortest_path(
        shortest_path_routes(base), reordered, diff
    )
    assert list(repaired.entries()) == list(
        shortest_path_routes(reordered).entries()
    )
    assert moved == frozenset(reordered.switches)


def test_an_unchanged_topology_moves_nothing():
    base = fat_tree(4)
    table = shortest_path_routes(base)
    repaired, moved = repair_shortest_path(
        table, base, diff_topologies(base, base)
    )
    assert moved == frozenset()
    assert list(repaired.entries()) == list(table.entries())
