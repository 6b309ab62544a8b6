"""Route repair equals a full recompute, for every strategy.

``repair_routes`` derives the table of an edited topology from the live
one, re-deriving only the destinations the strategy's ``touches`` test
says the edit can move (shortest-path runs the BFS again only for the
destination switches whose tree the edit can change) and every
destination of a strategy without one. Over seeded walks of link drops,
re-adds (the link comes back last, on new port numbers) and restores of
an earlier topology (links come back where they were), every repaired
table must equal the strategy's full build on the new topology entry
for entry and in order, and the switches it reports moved must cover
every switch whose entries changed. Each walk runs under every strategy
the walked topology supports; an edit the strategy refuses must raise
the same error from the repair as from the full build, and the walk
goes on from the last topology the strategy accepted.
"""

from __future__ import annotations

from repro.routing.strategies import (
    DIMENSION_ORDER,
    DRAGONFLY_MINIMAL,
    FATTREE_UPDOWN,
    SHORTEST_PATH,
    TORUS_DATELINE,
    build_routes,
    repair_routes,
)
from repro.topology import dragonfly, fat_tree, mesh2d, torus2d
from repro.topology.diff import (
    diff_topologies,
    link_keys,
    rebuild,
    removable_switch_links,
)
from repro.topology.graph import Topology
from repro.topology.zoo import build_zoo_topology, zoo_entry
from repro.util.errors import ReproError
from tests.proptools import prop_cases, random_topology, seeded_cases

ROOT_SEED = 20261017
STEPS = 6

TOPOLOGIES = {
    "fat-tree-k4": lambda: fat_tree(4),
    "fat-tree-k8": lambda: fat_tree(8),
    "torus2d-5x5": lambda: torus2d(5, 5),
    "dragonfly-a4g9h2": lambda: dragonfly(4, 9, 2),
    # two global links per group pair: a global drop can be routed around
    "dragonfly-a4g5h2": lambda: dragonfly(4, 5, 2),
    "zoo-Interoute": lambda: build_zoo_topology(
        zoo_entry("Interoute"), hosts_per_switch=1
    ),
    "mesh2d-4x4": lambda: mesh2d(4, 4),
}

#: the strategies each walked family supports
STRATEGIES = {
    "fat-tree-k4": (SHORTEST_PATH, FATTREE_UPDOWN),
    "fat-tree-k8": (SHORTEST_PATH, FATTREE_UPDOWN),
    "torus2d-5x5": (SHORTEST_PATH, TORUS_DATELINE),
    "dragonfly-a4g9h2": (SHORTEST_PATH, DRAGONFLY_MINIMAL),
    "dragonfly-a4g5h2": (SHORTEST_PATH, DRAGONFLY_MINIMAL),
    "zoo-Interoute": (SHORTEST_PATH,),
    "mesh2d-4x4": (SHORTEST_PATH, DIMENSION_ORDER),
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


def _refusal(fn, *args):
    """What ``fn(*args)`` raises, as (type, message), or None."""
    try:
        fn(*args)
    except ReproError as exc:
        return type(exc), str(exc)
    return None


def _repair_or_build(table, new, diff, strategy):
    """What an edit routes with: the repair, else the full build with
    every switch moved."""
    return repair_routes(table, new, diff, strategy) or (
        build_routes(new, strategy), frozenset(new.switches)
    )


def _check_walk(
    base: Topology, rng, label: str, strategies=(SHORTEST_PATH,)
) -> dict[str, int]:
    """Walk ``base``, repairing step by step under each strategy;
    returns per strategy how many steps were repaired without the
    full build."""
    steps = list(_walk(rng, base))
    repaired_steps = dict.fromkeys((s.name for s in strategies), 0)
    for strategy in strategies:
        table = build_routes(base, strategy)
        before = _entries_by_switch(table)
        for step, (_old, new) in enumerate(steps):
            old = table.topology  # the last topology the strategy took
            where = f"{label} {strategy.name} step {step}"
            diff = diff_topologies(old, new)
            refused = _refusal(build_routes, new, strategy)
            if refused is not None:
                assert _refusal(_repair_or_build, table, new, diff, strategy) == refused, where
                continue
            table.entries_at(new.switches[0])  # bucket it: repairs carry buckets
            repaired_steps[strategy.name] += (
                repair_routes(table, new, diff, strategy) is not None
            )
            repaired, moved = _repair_or_build(table, new, diff, strategy)
            full = build_routes(new, strategy)
            assert list(repaired.entries()) == list(full.entries()), where
            after = _entries_by_switch(repaired)
            changed = {sw for sw in after if after[sw] != before.get(sw)}
            assert changed <= moved, f"{where}: unreported {changed - moved}"
            for sw in new.switches:
                assert repaired.entries_at(sw) == after.get(sw, []), where
            table, before = repaired, after
    return repaired_steps


def test_repair_equals_full_recompute():
    """Walks on the named topologies, one after the other."""
    bases = {name: build() for name, build in TOPOLOGIES.items()}
    repaired_steps: dict[tuple[str, str], int] = {}
    for idx, rng in seeded_cases(prop_cases(16), ROOT_SEED, "named"):
        name = list(bases)[idx % len(bases)]
        walked = _check_walk(
            bases[name], rng, f"{name} case {idx}", STRATEGIES[name]
        )
        for strategy, count in walked.items():
            key = (name, strategy)
            repaired_steps[key] = repaired_steps.get(key, 0) + count
    # the property must exercise the shortest-path repair, not only the
    # full build, on every topology, and each other strategy's repair
    # on some topology
    assert all(
        count for (_name, strategy), count in repaired_steps.items()
        if strategy == SHORTEST_PATH.name
    ), repaired_steps
    by_strategy: dict[str, int] = {}
    for (_name, strategy), count in repaired_steps.items():
        by_strategy[strategy] = by_strategy.get(strategy, 0) + count
    assert all(by_strategy.values()), repaired_steps


def test_repair_equals_full_recompute_on_random_topologies():
    for idx, rng in seeded_cases(prop_cases(60), ROOT_SEED, "random"):
        base = random_topology(
            rng, min_switches=3, max_switches=12, max_extra_links=8,
            max_hosts=8, name=f"rand-{idx}",
        )
        _check_walk(base, rng, f"random case {idx}")


def test_reordered_links_fall_back_to_the_full_strategy():
    """The same links in another order renumber ports with an empty
    diff: the repair must notice and leave the table to the full
    build."""
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
    for strategy in (SHORTEST_PATH, FATTREE_UPDOWN):
        assert repair_routes(build_routes(base, strategy), reordered, diff, strategy) is None


def test_an_unchanged_topology_moves_nothing():
    base = fat_tree(4)
    for strategy in (SHORTEST_PATH, FATTREE_UPDOWN):
        table = build_routes(base, strategy)
        repaired, moved = repair_routes(
            table, base, diff_topologies(base, base), strategy
        )
        assert moved == frozenset()
        assert list(repaired.entries()) == list(table.entries())
