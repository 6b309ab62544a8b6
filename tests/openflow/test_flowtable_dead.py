"""Property tests for FlowTable's strict-delete `_dead` bookkeeping.

Strict deletes only *mark* victims dead (``_dead`` holds their
table-assigned serials) and defer the list rebuild to the next
compaction. That optimization is only sound if two invariants hold
under arbitrary interleavings of adds, strict deletes, wildcard
deletes, and reads:

* **tombstones name only current members** — every marked serial is
  still held by an entry in ``_entries`` until :meth:`FlowTable._compact`
  drops the entry and the mark together. Serials are monotonic and
  never reused, so — unlike the previous ``id(entry)`` keying, where
  CPython could recycle a freed id onto a brand-new entry — a stale
  mark can never name a future entry.
* **index consistency** — the per-shape hash index (the table's only
  index: lookups and strict deletes both resolve through it) always
  agrees with the membership: every live entry sits in exactly one
  bucket, the one its match files under; no bucket holds an entry
  that left ``_entries``; and ``len(table)`` equals the number of live
  entries.

Cases are seeded (reproduce with the printed case index); counts scale
with ``SDT_PROP_CASES`` for CI's stress job.
"""

from __future__ import annotations

from repro.openflow.actions import ApplyActions, Output
from repro.openflow.flowtable import FlowEntry, FlowTable, _shape_key
from repro.openflow.match import Match, PacketHeader
from tests.proptools import prop_cases, seeded_cases

ROOT_SEED = 20260806
NUM_CASES = prop_cases(120)

#: small universes force heavy (priority, match) collisions — the
#: interesting regime for the index and the dead-mark path
PRIORITIES = (1, 2, 3)
PORTS = (1, 2, 3, 4)
COOKIES = (7, 8, 9)


def _entry(rng) -> FlowEntry:
    return FlowEntry(
        priority=int(rng.choice(PRIORITIES)),
        match=Match(in_port=int(rng.choice(PORTS))),
        instructions=(ApplyActions((Output(1),)),),
        cookie=int(rng.choice(COOKIES)),
    )


def _check_invariants(table: FlowTable, case: int) -> None:
    live = [e for e in table._entries if e.serial not in table._dead]
    # every dead serial still held by a member of _entries (entry and
    # mark are only ever dropped together, by _compact)
    referenced = {e.serial for e in table._entries}
    assert table._dead <= referenced, (
        f"case {case}: dead serials {table._dead - referenced} no "
        "longer held by any entry in _entries"
    )
    # serials are unique among members and below the mint counter
    assert len(referenced) == len(table._entries), (
        f"case {case}: two entries share a serial"
    )
    assert all(0 <= s < table._next_seq for s in referenced), (
        f"case {case}: serial outside the minted range"
    )
    # __len__ counts live entries only
    assert len(table) == len(live), case
    # the one index agrees with membership, bucket by bucket: every live
    # entry sits in exactly one _shapes bucket or in _wild ...
    filed = [
        ((shape, key), e)
        for shape, buckets in table._shapes.items()
        for key, bucket in buckets.items()
        for e in bucket
    ] + [(None, e) for e in table._wild]
    indexed = [e for _, e in filed]
    assert len(indexed) == len(set(map(id, indexed))), (
        f"case {case}: an entry appears in two index buckets"
    )
    assert {id(e) for e in live} <= {id(e) for e in indexed}, (
        f"case {case}: a live entry is missing from the index"
    )
    # ... no bucket holds an entry that left _entries (tombstoned
    # members stay filed until compaction drops them from both) ...
    assert {id(e) for e in indexed} <= {id(e) for e in table._entries}, (
        f"case {case}: the index holds an entry absent from _entries"
    )
    # ... and each is filed where a lookup or strict delete looks for it
    for filed_under, e in filed:
        assert _shape_key(e.match) == filed_under, (
            f"case {case}: entry filed under the wrong key"
        )


def _random_ops(table: FlowTable, rng, steps: int, case: int) -> None:
    for _ in range(steps):
        op = rng.random()
        if op < 0.5:
            table.add(_entry(rng))
        elif op < 0.85:
            # strict delete: the deferred-compaction path under test
            table.remove(
                match=Match(in_port=int(rng.choice(PORTS))),
                priority=int(rng.choice(PRIORITIES)),
                cookie=(
                    int(rng.choice(COOKIES)) if rng.random() < 0.5 else None
                ),
            )
        elif op < 0.95:
            # wildcard delete: compacts, then rebuilds the index
            table.remove(cookie=int(rng.choice(COOKIES)))
        else:
            table.snapshot()  # forces a compaction mid-stream
        _check_invariants(table, case)


def test_dead_marks_stay_referenced_until_compact():
    """Serials in ``_dead`` are never dropped from ``_entries``
    separately: compaction removes entry and mark together, and the
    mint counter never reuses a serial, so a stale mark can never name
    a live entry."""
    for case, rng in seeded_cases(NUM_CASES, ROOT_SEED, "dead"):
        table = FlowTable(table_id=0)
        _random_ops(table, rng, steps=40, case=case)
        table._compact()
        assert not table._dead, case
        _check_invariants(table, case)


def test_index_consistent_under_interleaved_bursts():
    """Bursts of adds then strict deletes (the delta-batch shape from
    incremental reconfiguration) keep the (priority, match) index in
    lock-step with live membership."""
    for case, rng in seeded_cases(NUM_CASES, ROOT_SEED, "burst"):
        table = FlowTable(table_id=0)
        for _ in range(int(rng.integers(1, 5))):
            added = [_entry(rng) for _ in range(int(rng.integers(1, 12)))]
            for e in added:
                table.add(e)
            _check_invariants(table, case)
            for e in added:
                if rng.random() < 0.6:
                    table.remove(
                        match=e.match, priority=e.priority, cookie=e.cookie
                    )
            _check_invariants(table, case)
        # reads see exactly the live entries, in descending priority
        seen = list(table)
        assert not table._dead  # iteration compacts
        assert [id(e) for e in seen] == [id(e) for e in table._entries]
        assert all(
            a.priority >= b.priority for a, b in zip(seen, seen[1:])
        ), case


def _single_entry() -> FlowEntry:
    return FlowEntry(
        priority=5,
        match=Match(in_port=1),
        instructions=(ApplyActions((Output(2),)),),
        cookie=11,
    )


def test_forced_id_reuse_cannot_shadow_a_new_entry():
    """Regression for the id-keyed tombstone hazard: re-adding the very
    same entry object while its strict-delete tombstone is still pending
    is the strongest possible id collision (``id()`` is literally equal).
    Under id-keyed ``_dead`` the re-add was invisible to lookups and
    silently dropped at the next compaction; serial keying re-stamps the
    entry and keeps it live."""
    table = FlowTable(table_id=0)
    e = _single_entry()
    table.add(e)
    assert table.remove(match=e.match, priority=e.priority) == 1
    assert len(table) == 0
    table.add(e)  # same object → recycled id, fresh serial
    assert len(table) == 1
    from repro.openflow.match import PacketHeader

    hdr = PacketHeader(src="a", dst="b")
    assert table.lookup(1, 0, hdr) is e
    table._compact()
    assert not table._dead
    assert list(table) == [e]
    assert table.lookup(1, 0, hdr) is e


def test_forced_id_reuse_in_add_batch():
    """Same hazard through the batched-install fast path."""
    table = FlowTable(table_id=0)
    e = _single_entry()
    table.add_batch([e])
    assert table.remove(match=e.match, priority=e.priority) == 1
    table.add_batch([e])
    table._compact()
    assert len(table) == 1
    assert list(table) == [e]


def test_serials_stay_monotonic_across_index_rebuilds():
    """A wildcard delete rebuilds the index; serials must keep counting
    upward so an old tombstone can never name a future entry."""
    table = FlowTable(table_id=0)
    for i in range(4):
        table.add(
            FlowEntry(
                priority=1,
                match=Match(in_port=i + 1),
                instructions=(ApplyActions((Output(1),)),),
                cookie=3,
            )
        )
    high_water = table._next_seq
    table.remove(cookie=3)  # wildcard path: compact + rebuild
    assert len(table) == 0
    table.add(_single_entry())
    assert all(e.serial >= high_water for e in table._entries)


def test_strict_delete_counts_match_membership():
    """remove() return values stay consistent with len() across an
    interleaved run: adds - removals == live count."""
    for case, rng in seeded_cases(NUM_CASES, ROOT_SEED, "count"):
        table = FlowTable(table_id=0)
        added = removed = 0
        for _ in range(40):
            if rng.random() < 0.55:
                table.add(_entry(rng))
                added += 1
            else:
                removed += table.remove(
                    match=Match(in_port=int(rng.choice(PORTS))),
                    priority=int(rng.choice(PRIORITIES)),
                )
        assert added - removed == len(table), case


# --- strict deletes through the one index -----------------------------------
# With the (priority, match) index gone, a strict delete finds its
# victims through the bucket its match files under and filters there.

_OUT = (ApplyActions((Output(1),)),)
_HDR = PacketHeader(src="a", dst="b")


def test_strict_delete_of_a_masked_metadata_victim():
    """A partial ``metadata_mask`` files in no bucket: the victim is
    found in the fallback list, and only the exact match goes."""
    table = FlowTable(table_id=0)
    masked = Match(metadata=0x10, metadata_mask=0xF0)
    other_mask = Match(metadata=0x10, metadata_mask=0xFF)
    exact = Match(metadata=0x10)
    for m in (masked, other_mask, exact):
        table.add(FlowEntry(4, m, _OUT, cookie=1))
    assert table.remove(match=masked, priority=3) == 0  # wrong priority
    assert table.remove(match=masked, priority=4) == 1
    _check_invariants(table, 0)
    assert [e.match for e in table] == [other_mask, exact]
    assert table.lookup(1, 0x1F, _HDR) is None  # only `masked` took 0x1F
    assert table.remove(match=masked, priority=4) == 0


def test_strict_delete_filters_generations_by_cookie():
    """Two generations share (priority, match) — a make-before-break
    swap mid-flight. A cookie names one; ``cookie=None`` takes both."""
    for cookie, expected_left in ((7, [8, 9]), (None, [9])):
        table = FlowTable(table_id=0)
        shared = Match(in_port=1)
        table.add(FlowEntry(5, shared, _OUT, cookie=7))
        table.add(FlowEntry(5, shared, _OUT, cookie=8))
        table.add(FlowEntry(5, Match(in_port=2), _OUT, cookie=9))
        removed = table.remove(match=shared, priority=5, cookie=cookie)
        assert removed == (1 if cookie is not None else 2)
        _check_invariants(table, 0)
        assert [e.cookie for e in table] == expected_left
        winner = table.lookup(1, 0, _HDR)
        assert (winner.cookie if winner else None) == (
            8 if cookie is not None else None
        )


def test_strict_delete_skips_an_already_tombstoned_victim():
    """The bucket still holds a tombstoned entry until compaction; a
    repeated delete must not count (or re-mark) it."""
    table = FlowTable(table_id=0)
    e = _single_entry()
    twin = _single_entry()
    table.add(e)
    table.add(twin)
    assert table.remove(match=e.match, priority=e.priority) == 2
    assert table._dead and len(table) == 0  # marked, not yet compacted
    assert table.remove(match=e.match, priority=e.priority) == 0
    _check_invariants(table, 0)
    table.add(_single_entry())
    assert table.remove(match=e.match, priority=e.priority) == 1
    assert len(table) == 0


def test_strict_delete_straight_after_restore():
    """``restore()`` rebuilds the index from the snapshot: a strict
    delete resolves against the restored entries at once, including
    ones the pre-restore table had tombstoned."""
    table = FlowTable(table_id=0)
    keep, victim = _single_entry(), FlowEntry(5, Match(in_port=2), _OUT, 11)
    table.add(keep)
    table.add(victim)
    snap = table.snapshot()
    assert table.remove(match=victim.match, priority=5, cookie=11) == 1
    table.add(FlowEntry(6, Match(in_port=3), _OUT, 12))
    table.restore(snap)
    _check_invariants(table, 0)
    assert table.remove(match=Match(in_port=3), priority=6) == 0
    assert table.remove(match=victim.match, priority=5, cookie=11) == 1
    _check_invariants(table, 0)
    assert list(table) == [keep]
    assert table.lookup(2, 0, _HDR) is None
