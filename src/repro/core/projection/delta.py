"""Incremental Link Projection: re-project only what changed (§IV + DESIGN.md §5b).

A full :class:`~repro.core.projection.linkproj.LinkProjection` run
re-partitions the topology and re-allocates every cable from scratch —
correct, but a 1-link edit should not move the other thousand links to
different physical ports (that would dirty every sub-switch and turn a
tiny delta into a full reinstall). :func:`project_delta` instead takes
the live projection as the starting point and enforces **placement
stability**:

* surviving logical links keep their physical realization (same cable,
  same ports), surviving hosts keep their physical host;
* surviving sub-switches keep their physical switch (the caller's
  extended partition pins their part) and their metadata tag;
* removed links/hosts return their resources to the free pools;
* added links/hosts allocate only from what is free.

The result is a complete, validated :class:`ProjectionResult` for the
*new* topology in which every untouched sub-switch projects to exactly
the same physical ports as before — which is what lets rule synthesis
hand those sub-switches their old blocks back and delta staging push
O(changed links) messages.

The allocation itself is
:func:`~repro.core.projection.linkproj.realize` — the routine a cold
projection runs from the empty projection; this module adds only the
preconditions that make its output placement-stable. Given the edit's
diff, the work is O(changed links): only the added links are allocated,
only the sub-switches whose ports the edit renumbers are bound again
and validated, and everything else is carried over from the live
projection.
"""

from __future__ import annotations

from repro.core.projection.base import ProjectionResult
from repro.core.projection.linkproj import FreeWiring, realize, require_projectable
from repro.hardware.cluster import PhysicalCluster
from repro.partition.objective import Partition
from repro.topology.diff import TopologyDiff, diff_topologies
from repro.topology.graph import Topology
from repro.util.errors import ProjectionError


def project_delta(
    cluster: PhysicalCluster,
    old: ProjectionResult,
    new_topology: Topology,
    partition: Partition,
    *,
    free: FreeWiring | None = None,
    metadata_base: int = 1,
    diff: TopologyDiff | None = None,
) -> ProjectionResult:
    """Project ``new_topology`` by editing the live projection ``old``.

    ``partition`` must pin every surviving switch to its old part (use
    :func:`~repro.partition.cache.extend_partition`). ``free`` is the
    wiring the edit may bind (default: all of the cluster's): it leaves
    out what *other* coexisting deployments hold, while the old
    projection's own cables stay in it for reuse.
    ``metadata_base`` numbers the sub-switches of added logical
    switches; surviving sub-switches keep their tag. ``diff`` is the
    edit's :class:`~repro.topology.diff.TopologyDiff` from
    ``old.topology`` (default: computed here); the old projection's
    topology was projectable, so only the hosts it touches are checked
    again.

    Raises :class:`CapacityError` when the freed + spare wiring cannot
    host the added links (callers fall back to a full re-projection).
    """
    if old.usage is not None:
        raise ProjectionError(
            "cannot incrementally edit a route-usage-pruned projection"
        )
    if diff is None:
        diff = diff_topologies(old.topology, new_topology)
    require_projectable(new_topology, diff.touched_nodes())
    for sw in new_topology.switches:
        if sw in old.partition.assignment:
            if partition.part_of(sw) != old.partition.part_of(sw):
                raise ProjectionError(
                    f"incremental partition moved surviving switch {sw!r}; "
                    "placement stability requires it to keep its part"
                )
    return realize(
        FreeWiring(cluster.wiring) if free is None else free,
        old,
        new_topology,
        partition,
        metadata_base=metadata_base,
        diff=diff,
    )
