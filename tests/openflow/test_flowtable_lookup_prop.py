"""Differential property test: hash-first lookup ≡ linear scan.

:meth:`FlowTable.lookup` answers from per-shape hash buckets plus a
wildcard fallback list, ranked by (priority desc, arrival asc). The
semantic contract is the classic OpenFlow one: *the* matching entry is
what a priority-ordered linear scan with ``Match.matches`` would
return, first-added winning among equal priorities. This suite pits
the indexed lookup against exactly that reference on randomized
tables — mixed shapes, masked-metadata entries that only the fallback
scan can serve, heavy key collisions, and interleaved strict deletes
that prune the buckets mid-stream.

Cases are seeded (reproduce by index); counts scale with
``SDT_PROP_CASES`` for CI's stress job.
"""

from __future__ import annotations

from repro.openflow.actions import ApplyActions, Output
from repro.openflow.flowtable import FlowEntry, FlowTable
from repro.openflow.match import Match, PacketHeader
from tests.proptools import prop_cases, seeded_cases

ROOT_SEED = 20260807
NUM_CASES = prop_cases(80)

#: deliberately tiny universes: most value in this test comes from
#: collisions — many entries per bucket, many entries matching one
#: packet at different priorities
PORTS = (1, 2, 3)
METAS = (1, 2, 3)
HOSTS = ("h1", "h2", "h3")
PROTOS = ("udp", "tcp")
VCS = (0, 1)
PRIORITIES = (1, 2, 3)
#: partial masks route the entry to the fallback-scan path
MASKS = (0xFFFFFFFF, 0xFFFFFFFF, 0xF0, 0x03)


def _random_match(rng) -> Match:
    """A random match drawn from the shape space synthesis emits plus
    the shapes it never does (src/proto/L4, full wildcard, masked
    metadata) — the index must be right for all of them."""
    kind = rng.random()
    if kind < 0.2:
        return Match(in_port=int(rng.choice(PORTS)))
    if kind < 0.45:
        return Match(
            metadata=int(rng.choice(METAS)), dst=str(rng.choice(HOSTS))
        )
    if kind < 0.6:
        return Match(
            metadata=int(rng.choice(METAS)),
            dst=str(rng.choice(HOSTS)),
            vc=int(rng.choice(VCS)),
        )
    if kind < 0.75:
        # masked metadata: hash-first cannot serve this shape
        return Match(
            metadata=int(rng.choice(METAS)),
            metadata_mask=int(rng.choice(MASKS)),
            dst=str(rng.choice(HOSTS)) if rng.random() < 0.5 else None,
        )
    if kind < 0.85:
        return Match(
            src=str(rng.choice(HOSTS)), proto=str(rng.choice(PROTOS))
        )
    if kind < 0.95:
        return Match(
            dst=str(rng.choice(HOSTS)),
            dst_port=int(rng.choice((0, 80))),
        )
    return Match()  # full wildcard


def _entry(rng) -> FlowEntry:
    return FlowEntry(
        priority=int(rng.choice(PRIORITIES)),
        match=_random_match(rng),
        instructions=(ApplyActions((Output(int(rng.choice(PORTS))),)),),
        cookie=int(rng.integers(0, 3)),
    )


def _packet(rng) -> tuple[int, int, PacketHeader]:
    return (
        int(rng.choice(PORTS)),
        int(rng.choice(METAS)),
        PacketHeader(
            src=str(rng.choice(HOSTS)),
            dst=str(rng.choice(HOSTS)),
            proto=str(rng.choice(PROTOS)),
            dst_port=int(rng.choice((0, 80))),
            vc=int(rng.choice(VCS)),
        ),
    )


def _reference_lookup(
    shadow: list[FlowEntry], in_port: int, metadata: int,
    header: PacketHeader,
) -> FlowEntry | None:
    """The spec: scan in (priority desc, arrival asc) order, first
    match wins. ``shadow`` holds live entries in arrival order, so a
    stable sort on -priority gives exactly that order."""
    for e in sorted(shadow, key=lambda e: -e.priority):
        if e.match.matches(in_port, metadata, header):
            return e
    return None


def _shadow_strict_remove(
    shadow: list[FlowEntry], match: Match, priority: int,
    cookie: int | None,
) -> list[FlowEntry]:
    return [
        e
        for e in shadow
        if not (
            e.priority == priority
            and e.match == match
            and (cookie is None or e.cookie == cookie)
        )
    ]


def test_lookup_matches_linear_scan_reference():
    """Indexed lookup and the linear-scan reference pick the *same
    object* for every packet, across adds, batch adds, strict deletes
    and whole-table reads."""
    for case, rng in seeded_cases(NUM_CASES, ROOT_SEED, "lookup"):
        table = FlowTable(table_id=0)
        shadow: list[FlowEntry] = []
        for _step in range(30):
            op = rng.random()
            if op < 0.4:
                e = _entry(rng)
                table.add(e)
                shadow.append(e)
            elif op < 0.6:
                batch = [_entry(rng) for _ in range(int(rng.integers(1, 8)))]
                table.add_batch(batch)
                shadow.extend(batch)
            elif op < 0.85 and shadow:
                # strict-delete an existing entry's (match, priority)
                # half the time, a random (often absent) key otherwise
                if rng.random() < 0.5:
                    victim = shadow[int(rng.integers(0, len(shadow)))]
                    m, p = victim.match, victim.priority
                else:
                    m, p = _random_match(rng), int(rng.choice(PRIORITIES))
                c = int(rng.integers(0, 3)) if rng.random() < 0.5 else None
                table.remove(match=m, priority=p, cookie=c)
                shadow = _shadow_strict_remove(shadow, m, p, c)
            else:
                table.snapshot()  # a read mid-stream changes nothing
            for _ in range(4):
                in_port, metadata, header = _packet(rng)
                got = table.lookup(in_port, metadata, header)
                want = _reference_lookup(shadow, in_port, metadata, header)
                assert got is want, (
                    f"case {case}: lookup diverged from linear scan for "
                    f"port={in_port} md={metadata} {header}: "
                    f"got {got and got.match}/{got and got.priority}, "
                    f"want {want and want.match}/{want and want.priority}"
                )


def test_lookup_stable_across_deletes():
    """For a fixed table, every packet's lookup result is the same
    object before and after a read of the whole table (reads leave the
    index as the deletes left it)."""
    for case, rng in seeded_cases(NUM_CASES, ROOT_SEED, "compact"):
        table = FlowTable(table_id=0)
        entries = [_entry(rng) for _ in range(int(rng.integers(10, 40)))]
        table.add_batch(entries)
        for e in entries:
            if rng.random() < 0.4:
                table.remove(match=e.match, priority=e.priority)
        packets = [_packet(rng) for _ in range(12)]
        before = [table.lookup(*p) for p in packets]
        table.snapshot()
        after = [table.lookup(*p) for p in packets]
        for (got_b, got_a) in zip(before, after):
            assert got_b is got_a, (
                f"case {case}: a read changed a lookup result"
            )
