"""PartitionCache keying/invalidation and extend_partition (DESIGN.md §5b)."""

import pytest

import repro.partition.cache as pc
from repro.partition.cache import PartitionCache, extend_partition, partition_key
from repro.partition.objective import Partition
from repro.topology import Topology, fat_tree
from repro.topology.diff import rebuild, removable_switch_links


def _key(topo, num_parts=2, seed=0):
    return partition_key(topo, num_parts, seed=seed)


@pytest.fixture()
def counting(monkeypatch):
    """Count calls that reach the real partitioner."""
    calls = {"n": 0}
    orig = pc.partition_topology

    def wrapper(*args, **kwargs):
        calls["n"] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(pc, "partition_topology", wrapper)
    return calls


def test_identical_inputs_hit(counting):
    cache = PartitionCache()
    topo = fat_tree(4)
    first = cache.partition(topo, 2)
    second = cache.partition(fat_tree(4), 2)  # equal-by-structure rebuild
    assert counting["n"] == 1
    assert second.assignment == first.assignment
    assert second.num_parts == first.num_parts


def test_cached_partitions_are_copies(counting):
    cache = PartitionCache()
    topo = fat_tree(4)
    first = cache.partition(topo, 2)
    first.assignment.clear()  # a careless caller must not poison the cache
    second = cache.partition(topo, 2)
    assert counting["n"] == 1
    assert second.assignment  # unharmed
    assert second.assignment is not first.assignment


def test_eviction_drops_oldest(counting):
    cache = PartitionCache(max_entries=2)
    topos = [fat_tree(4), rebuild(fat_tree(4), drop_links={
        removable_switch_links(fat_tree(4))[0]}), fat_tree(8)]
    for t in topos:
        cache.partition(t, 2)
    assert len(cache) == 2
    assert counting["n"] == 3
    cache.partition(topos[0], 2)  # evicted: recomputes
    assert counting["n"] == 4


def _edits():
    base = fat_tree(4)

    def add_host(t):
        e = rebuild(t)
        e.add_host("extra-host")
        e.connect(t.switches[0], "extra-host")
        return e

    def add_link(t):
        # a new switch-switch link changes both the edge set and the
        # endpoint radices (the partition's node weights)
        absent = next(
            (a, b)
            for a in t.switches
            for b in t.switches
            if a < b and b not in t.neighbors(a)
        )
        return rebuild(t, add_links=[absent])

    def drop_link(t):
        return rebuild(t, drop_links={removable_switch_links(t)[0]})

    def add_switch(t):
        e = rebuild(t)
        e.add_switch("extra-switch")
        e.connect(t.switches[0], "extra-switch")
        return e

    return base, {
        "host-changes-weight": add_host,
        "added-link": add_link,
        "dropped-link": drop_link,
        "added-switch": add_switch,
    }


@pytest.mark.parametrize("edit", sorted(_edits()[1]))
def test_topology_edits_change_the_key(edit):
    base, edits = _edits()
    assert _key(edits[edit](base)) != _key(base)


@pytest.mark.parametrize(
    "kw", [{"num_parts": 3}, {"seed": 7}],
    ids=lambda kw: next(iter(kw)),
)
def test_partitioner_arguments_change_the_key(kw):
    base = fat_tree(4)
    assert _key(base, **kw) != _key(base)


def test_changed_arguments_miss_the_cache(counting):
    cache = PartitionCache()
    topo = fat_tree(4)
    cache.partition(topo, 2)
    cache.partition(topo, 3)  # different part count
    cache.partition(topo, 2, seed=1)  # different seed
    assert counting["n"] == 3


# --- seed ------------------------------------------------------------------

def test_seed_makes_later_lookup_a_pure_hit(counting):
    """Seeding an extend_partition result under the edited topology's
    key means a later check/deploy of that topology never reaches the
    partitioner — the incremental path's warm re-check contract."""
    cache = PartitionCache()
    topo = fat_tree(4)
    assignment = {sw: i % 2 for i, sw in enumerate(topo.switches)}
    cache.seed(topo, Partition(assignment, 2))
    got = cache.partition(topo, 2)
    assert counting["n"] == 0  # served entirely from the seed
    assert got.assignment == assignment


def test_seed_replaces_what_the_partitioner_would_compute(counting):
    """A seeded partition intentionally wins over partition_topology's
    answer: the live deployment's assignment is the useful one."""
    cache = PartitionCache()
    topo = fat_tree(4)
    computed = cache.partition(topo, 2)
    assert counting["n"] == 1
    flipped = Partition(
        {sw: 1 - p for sw, p in computed.assignment.items()}, 2
    )
    cache.seed(topo, flipped)
    assert cache.partition(topo, 2).assignment == flipped.assignment
    assert counting["n"] == 1  # still no second partitioner run


def test_seed_stores_a_copy():
    cache = PartitionCache()
    topo = fat_tree(4)
    expected = {sw: 0 for sw in topo.switches}
    part = Partition(dict(expected), 1)
    cache.seed(topo, part)
    part.assignment.clear()  # caller mutates its copy afterwards
    assert cache.partition(topo, 1).assignment == expected


def test_seed_does_not_touch_hit_miss_counters():
    from repro.telemetry import metrics

    cache = PartitionCache()
    topo = fat_tree(4)

    def totals() -> float:
        inst = metrics.registry().get("sdt_partition_cache_total")
        if inst is None:
            return 0.0
        return inst.value(result="hit") + inst.value(result="miss")

    before = totals()
    cache.seed(topo, Partition({sw: 0 for sw in topo.switches}, 1))
    assert totals() == before  # seeding is not a lookup


def test_seeded_entry_survives_eviction_pressure_until_its_recheck(counting):
    """The incremental path seeds the edited topology's partition and
    warm-rechecks it later in the same reconfigure; an intervening burst
    of unrelated partitions must not evict it first."""
    cache = PartitionCache(max_entries=2)
    topo = fat_tree(4)
    assignment = {sw: i % 2 for i, sw in enumerate(topo.switches)}
    cache.seed(topo, Partition(assignment, 2))
    # pressure: two unrelated topologies churn through the tiny cache
    cache.partition(fat_tree(8), 2)
    cache.partition(rebuild(fat_tree(4), drop_links={
        removable_switch_links(fat_tree(4))[0]}), 2)
    assert counting["n"] == 2
    got = cache.partition(topo, 2)  # the warm re-check
    assert counting["n"] == 2  # still a pure hit: the pin held
    assert got.assignment == assignment
    # the pin was consumed: the key now ages (and can be evicted) normally
    assert not cache.pinned


def test_hit_refreshes_lru_recency(counting):
    cache = PartitionCache(max_entries=2)
    a, b, c = fat_tree(4), fat_tree(8), rebuild(fat_tree(4), drop_links={
        removable_switch_links(fat_tree(4))[0]})
    cache.partition(a, 2)
    cache.partition(b, 2)
    cache.partition(a, 2)  # refreshes a: b is now least-recently-used
    cache.partition(c, 2)  # evicts b, not a
    assert counting["n"] == 3
    cache.partition(a, 2)
    assert counting["n"] == 3  # a survived
    cache.partition(b, 2)
    assert counting["n"] == 4  # b was the eviction victim


def test_seed_on_present_key_replaces_without_evicting(counting):
    """Re-seeding a key the cache already holds must neither evict an
    unrelated entry nor change the cache's size."""
    cache = PartitionCache(max_entries=2)
    topo = fat_tree(4)
    other = fat_tree(8)
    cache.partition(other, 2)
    assignment = {sw: 0 for sw in topo.switches}
    cache.seed(topo, Partition(assignment, 2))
    assert len(cache) == 2
    flipped = Partition({sw: 1 - p for sw, p in assignment.items()}, 2)
    cache.seed(topo, flipped)  # present key, cache at capacity
    assert len(cache) == 2  # no eviction ran
    cache.partition(other, 2)
    assert counting["n"] == 1  # the unrelated entry is still cached
    assert cache.partition(topo, 2).assignment == flipped.assignment


def test_all_pinned_fallback_keeps_cache_bounded():
    cache = PartitionCache(max_entries=2)
    topos = [fat_tree(4), fat_tree(8), fat_tree(6)]
    for t in topos:
        cache.seed(t, Partition({sw: 0 for sw in t.switches}, 1))
    assert len(cache) == 2
    assert len(cache.pinned) == 2


def test_clear_drops_pins():
    cache = PartitionCache()
    topo = fat_tree(4)
    cache.seed(topo, Partition({sw: 0 for sw in topo.switches}, 1))
    assert cache.pinned
    cache.clear()
    assert not cache.pinned
    assert len(cache) == 0


# --- extend_partition ------------------------------------------------------

def _line(names):
    t = Topology("line")
    for n in names:
        t.add_switch(n)
    for a, b in zip(names, names[1:]):
        t.connect(a, b)
    return t


def test_extend_keeps_surviving_parts():
    old = Partition({"a": 0, "b": 0, "c": 1, "d": 1}, 2)
    new = _line(["a", "b", "c"])  # d removed
    ext = extend_partition(old, new)
    assert ext.assignment == {"a": 0, "b": 0, "c": 1}
    assert ext.num_parts == 2


def test_extend_places_added_switch_with_its_neighbors():
    old = Partition({"a": 0, "b": 0, "c": 1, "d": 1}, 2)
    new = _line(["a", "b", "c", "d"])
    new.add_switch("e")
    new.connect("d", "e")
    new.connect("c", "e")
    ext = extend_partition(old, new)
    assert ext.assignment["e"] == 1  # both neighbors live in part 1
    assert all(ext.assignment[s] == old.assignment[s] for s in "abcd")


def test_extend_absorbs_added_component_breadth_first():
    old = Partition({"a": 0, "b": 1}, 2)
    new = _line(["a", "b"])
    # a connected pair of new switches hanging off "b"
    new.add_switch("x")
    new.add_switch("y")
    new.connect("b", "x")
    new.connect("x", "y")
    ext = extend_partition(old, new)
    assert ext.assignment["x"] == 1  # attached to b's part
    assert ext.assignment["y"] == 1  # absorbed through x


def test_extend_seeds_disconnected_component_on_least_loaded_part():
    old = Partition({"a": 0, "b": 0, "c": 1}, 2)
    new = _line(["a", "b", "c"])
    new.add_switch("island")  # no placed neighbor at all
    new.connect("c", "island")  # keep the topology connected...
    # ...but also test the true-island fallback directly:
    lone = _line(["a", "b", "c"])
    lone.add_switch("z")
    lone.add_switch("w")
    lone.connect("z", "w")
    ext = extend_partition(old, lone)
    # part 1 holds one survivor vs part 0's two: the island seeds there
    assert ext.assignment["z"] == 1
    assert ext.assignment["w"] == 1
