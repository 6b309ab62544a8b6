"""Content-addressed partition reuse for incremental reconfiguration.

Partitioning is the most expensive stage of the checking/deployment
pipeline (multilevel coarsening over the whole switch graph), yet
between two reconfigurations the switch graph is usually identical or
nearly so. Two tools avoid recomputing it:

* :class:`PartitionCache` — a content-hash cache over the exact inputs
  of :func:`~repro.partition.partition_topology`'s default multilevel
  method (switch graph structure, per-node weights, part count, seed).
  Re-deploying or re-checking an unchanged topology is a pure cache hit.
* :func:`extend_partition` — for *edited* topologies: surviving
  switches keep their old part (so their sub-switches stay on the same
  physical switch and their rules stay byte-identical), added switches
  are placed greedily next to their neighbors. The result is O(changes)
  instead of O(topology).

Cache keys are SHA-256 over a canonical serialization; anything that
could change the partition — node set, link set, node weights, part
count, seed — changes the key (see the invalidation tests in
``tests/partition/test_cache.py``).
"""

from __future__ import annotations

import hashlib
from collections import Counter, OrderedDict

from repro.partition import partition_topology
from repro.partition.objective import Partition
from repro.telemetry import metrics
from repro.topology.graph import Topology


def _digest(*parts: object) -> str:
    return hashlib.sha256("|".join(map(repr, parts)).encode()).hexdigest()


def partition_key(topology: Topology, num_parts: int, *, seed: int) -> str:
    """Content hash of everything :func:`partition_topology` reads.

    Node weights are the switch radices (ports in use), so adding a
    host or a link to a switch changes its weight and therefore the
    key — host edits invalidate even though hosts are not partitioned.
    """
    nodes = tuple(
        (sw, topology.radix(sw)) for sw in sorted(topology.switches)
    )
    edges = tuple(
        sorted(tuple(sorted(link.endpoints)) for link in topology.switch_links)
    )
    return _digest("partition-v1", seed, num_parts, nodes, edges)


class PartitionCache:
    """Keyed partitions with LRU eviction and hit/miss accounting.

    Stored partitions are returned as copies: callers may hold them in
    live deployments, and a shared mutable ``assignment`` dict would
    couple unrelated deployments.

    Eviction is least-recently-*used*: a lookup hit refreshes the
    entry's recency. Seeded entries are additionally **pinned** until
    their first lookup — the incremental-reconfiguration path seeds the
    edited topology's partition so that a *later* check or deploy of
    that topology finds it, so an intervening burst of unrelated
    partitions must not be able to evict it first. The pin is consumed
    by that first lookup (the key then ages like any other).
    """

    def __init__(self, max_entries: int = 256) -> None:
        self.max_entries = max_entries
        self._store: OrderedDict[str, Partition] = OrderedDict()
        self._pinned: set[str] = set()

    def partition(
        self, topology: Topology, num_parts: int, *, seed: int = 0
    ) -> Partition:
        """``partition_topology`` with content-hash memoization."""
        key = partition_key(topology, num_parts, seed=seed)
        reg = metrics.registry()
        cached = self._store.get(key)
        if cached is not None:
            self._store.move_to_end(key)  # LRU refresh
            self._pinned.discard(key)  # the warm re-check consumed the pin
            reg.counter("sdt_partition_cache_total").inc(1, result="hit")
            return Partition(dict(cached.assignment), cached.num_parts)
        reg.counter("sdt_partition_cache_total").inc(1, result="miss")
        part = partition_topology(topology, num_parts, seed=seed)
        self._put(key, part)
        return part

    def seed(
        self, topology: Topology, part: Partition, *, seed: int = 0
    ) -> None:
        """Store an already-computed partition under ``topology``'s
        content key without running the partitioner (and without
        touching the hit/miss counters).

        This is how :func:`extend_partition` results join the cache:
        incremental reconfiguration derives the edited topology's
        partition in O(changes), and seeding it means every later
        check/deploy of that same topology — the common "verify what I
        just built" pattern — is a pure hit instead of a from-scratch
        multilevel run. The seeded partition intentionally *replaces*
        what ``partition_topology`` would compute: it keeps surviving
        switches on their physical homes, which is the assignment the
        live deployment actually uses.

        The entry is pinned against eviction until its first lookup.
        Seeding an already-present key replaces the stored partition in
        place — it never evicts another entry and never changes the
        cache's size.
        """
        key = partition_key(topology, part.num_parts, seed=seed)
        self._put(key, part, pin=True)

    def _put(self, key: str, part: Partition, *, pin: bool = False) -> None:
        copied = Partition(dict(part.assignment), part.num_parts)
        if key in self._store:
            # in-place replace: occupancy is unchanged, so running the
            # eviction loop here would wrongly shrink the cache (and
            # could evict the very entry a warm re-check depends on)
            self._store[key] = copied
            self._store.move_to_end(key)
        else:
            while len(self._store) >= self.max_entries:
                self._evict_one()
            self._store[key] = copied
        if pin:
            self._pinned.add(key)

    def _evict_one(self) -> None:
        victim = next(
            (k for k in self._store if k not in self._pinned), None
        )
        if victim is None:
            # every entry is pinned (pathological: more in-flight
            # reconfigures than max_entries) — fall back to true LRU so
            # the cache stays bounded
            victim = next(iter(self._store))
            self._pinned.discard(victim)
        self._store.pop(victim)

    @property
    def pinned(self) -> frozenset[str]:
        """Keys currently pinned against eviction (awaiting their warm
        re-check)."""
        return frozenset(self._pinned)

    def __len__(self) -> int:
        return len(self._store)

    def clear(self) -> None:
        self._store.clear()
        self._pinned.clear()


def extend_partition(old: Partition, new_topology: Topology) -> Partition:
    """Carry an existing partition over to an edited topology.

    Surviving switches keep their part — the invariant incremental
    projection relies on (a kept part means a kept physical switch,
    which means kept cables and byte-identical rules for clean
    sub-switches). Added switches go to the part most of their
    already-placed neighbors live in, falling back to the least-loaded
    part; a connected group of added switches is absorbed breadth-first
    from its attachment points.
    """
    assignment = {
        sw: old.assignment[sw]
        for sw in new_topology.switches
        if sw in old.assignment
    }
    pending = [sw for sw in new_topology.switches if sw not in assignment]
    loads = Counter(assignment.values())

    def least_loaded() -> int:
        return min(range(old.num_parts), key=lambda p: (loads.get(p, 0), p))

    while pending:
        placed_one = False
        for sw in list(pending):
            neighbor_parts = Counter(
                assignment[n]
                for n in new_topology.neighbors(sw)
                if n in assignment
            )
            if not neighbor_parts:
                continue
            part = neighbor_parts.most_common(1)[0][0]
            assignment[sw] = part
            loads[part] += 1
            pending.remove(sw)
            placed_one = True
        if not placed_one:
            # an added component with no placed neighbor: seed it on the
            # least-loaded part and let the loop absorb the rest
            sw = pending.pop(0)
            part = least_loaded()
            assignment[sw] = part
            loads[part] += 1
    return Partition(assignment, old.num_parts)
