"""Property tests for FlowTable's one store and one index.

A table holds each entry once, in ``_store`` (serial -> entry, dict
order = arrival order), and files it once in the per-shape hash index
(``_shapes`` buckets plus the ``_wild`` fallback list). Every mutation
updates both in the same step, so two invariants must hold under
arbitrary interleavings of adds, strict deletes, wildcard deletes,
and reads:

* **the store is arrival-ordered** — its keys are its members' own
  serials, strictly increasing, all below the mint counter. Serials are
  monotonic and never reused, so — unlike ``id(entry)``, which CPython
  recycles — one can never name two entries in a table's lifetime.
* **index consistency** — the index (the table's only one: lookups and
  strict deletes both resolve through it) holds exactly the store's
  members: every member sits in exactly one bucket, the one its match
  files under; no bucket holds an entry the store lacks; no empty
  bucket or shape is left behind by a delete; and ``len(table)`` is the
  number of members.
* **pending rows** — rows a bulk install left unbuilt hold disjoint,
  arrival-ordered serial ranges above every stored serial, their counts
  add up, and building them files exactly those serials
  (``_check_pending``; ``_check_invariants`` builds them before the
  member checks).

The last test is differential: a reference model that *is* the
algorithm this representation replaced — a list kept priority-sorted on
every write, linear-scan lookup — must agree with the table on every
observable under random operation sequences.

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
#: interesting regime for the index and the strict-delete path
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


def _check_pending(table: FlowTable, case: int) -> None:
    """A bulk install's pending parts: arrival-ordered, disjoint serial
    ranges, all above every stored serial and inside the minted range,
    with row counts that add up to ``len(table)``; building them files
    exactly the reserved serials, each entry carrying its part's
    cookie."""
    parts = list(table._pending)
    ranges = [(first, first + rows) for first, rows, _cookie, _b in parts]
    assert all(lo < hi for lo, hi in ranges), (
        f"case {case}: an empty pending part"
    )
    assert all(a[1] <= b[0] for a, b in zip(ranges, ranges[1:])), (
        f"case {case}: pending serial ranges overlap or are out of order"
    )
    if ranges:
        assert ranges[0][0] >= 0 and ranges[-1][1] <= table._next_seq, (
            f"case {case}: pending serials outside the minted range"
        )
        assert not table._store or max(table._store) < ranges[0][0], (
            f"case {case}: a stored serial is newer than a pending one"
        )
    assert table._pending_rows == sum(hi - lo for lo, hi in ranges), case
    assert len(table) == len(table._store) + table._pending_rows, case
    if parts:
        table._materialize()
        for (lo, hi), (_first, _rows, cookie, _b) in zip(ranges, parts):
            built = [table._store.get(serial) for serial in range(lo, hi)]
            assert all(e is not None and e.cookie == cookie for e in built), (
                f"case {case}: a pending part built other rows than it held"
            )
    assert not table._pending and table._pending_rows == 0, case


def _check_invariants(table: FlowTable, case: int) -> None:
    # pending rows first; the checks below need every member built
    _check_pending(table, case)
    members = list(table._store.values())
    # store keys are the members' own serials, in strictly increasing
    # (= arrival) order, all minted by this table
    serials = list(table._store)
    assert serials == [e.serial for e in members], (
        f"case {case}: a member's serial differs from its store key"
    )
    assert all(a < b for a, b in zip(serials, serials[1:])), (
        f"case {case}: store not in arrival order"
    )
    assert all(0 <= s < table._next_seq for s in serials), (
        f"case {case}: serial outside the minted range"
    )
    assert len(table) == len(members), case
    # the one index agrees with membership, bucket by bucket: every
    # member sits in exactly one _shapes bucket or in _wild ...
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
    assert {id(e) for e in members} <= {id(e) for e in indexed}, (
        f"case {case}: a member is missing from the index"
    )
    # ... the index holds nothing the store lacks ...
    assert {id(e) for e in indexed} <= {id(e) for e in members}, (
        f"case {case}: the index holds an entry absent from the store"
    )
    # ... each is filed where a lookup or strict delete looks for it ...
    for filed_under, e in filed:
        assert _shape_key(e.match) == filed_under, (
            f"case {case}: entry filed under the wrong key"
        )
    # ... and a delete leaves no empty bucket or shape for lookups to
    # keep probing
    assert all(table._shapes.values()), f"case {case}: empty shape"
    assert all(
        bucket for buckets in table._shapes.values()
        for bucket in buckets.values()
    ), f"case {case}: empty bucket"


def _random_ops(table: FlowTable, rng, steps: int, case: int) -> None:
    for _ in range(steps):
        op = rng.random()
        if op < 0.5:
            table.add(_entry(rng))
        elif op < 0.85:
            # strict delete: victims leave store and bucket at once
            table.remove(
                match=Match(in_port=int(rng.choice(PORTS))),
                priority=int(rng.choice(PRIORITIES)),
                cookie=(
                    int(rng.choice(COOKIES)) if rng.random() < 0.5 else None
                ),
            )
        elif op < 0.95:
            # wildcard delete: victims found by walking the store
            table.remove(cookie=int(rng.choice(COOKIES)))
        else:
            table.snapshot()  # a read mid-stream changes nothing
        _check_invariants(table, case)


def test_store_and_index_agree_under_random_ops():
    """Store and index stay in lock-step after every single operation
    of a random add / strict delete / wildcard delete / read stream, and
    the mint counter never reuses a serial."""
    for case, rng in seeded_cases(NUM_CASES, ROOT_SEED, "dead"):
        table = FlowTable(table_id=0)
        _random_ops(table, rng, steps=40, case=case)


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
        # reads see exactly the members, in descending priority and, at
        # equal priority, arrival order
        seen = list(table)
        assert sorted(e.serial for e in seen) == list(table._store), case
        assert all(
            a.serial < b.serial
            for a, b in zip(seen, seen[1:])
            if a.priority == b.priority
        ), case
        assert all(
            a.priority >= b.priority for a, b in zip(seen, seen[1:])
        ), case


_OUT = (ApplyActions((Output(1),)),)
_HDR = PacketHeader(src="a", dst="b")


def _single_entry() -> FlowEntry:
    return FlowEntry(
        priority=5,
        match=Match(in_port=1),
        instructions=(ApplyActions((Output(2),)),),
        cookie=11,
    )


def test_forced_id_reuse_cannot_shadow_a_new_entry():
    """Re-adding the very same entry object straight after its strict
    delete is the strongest possible id collision (``id()`` is literally
    equal). The re-add gets a fresh serial and is a full member: visible
    to lookups, reads and the next delete."""
    table = FlowTable(table_id=0)
    e = _single_entry()
    table.add(e)
    assert table.remove(match=e.match, priority=e.priority) == 1
    assert len(table) == 0
    table.add(e)  # same object → recycled id, fresh serial
    assert len(table) == 1
    _check_invariants(table, 0)
    assert table.lookup(1, 0, _HDR) is e
    assert list(table) == [e]
    assert table.remove(match=e.match, priority=e.priority) == 1


def test_forced_id_reuse_in_add_batch():
    """Same hazard through the batched-install fast path."""
    table = FlowTable(table_id=0)
    e = _single_entry()
    table.add_batch([e])
    assert table.remove(match=e.match, priority=e.priority) == 1
    table.add_batch([e])
    _check_invariants(table, 0)
    assert len(table) == 1
    assert list(table) == [e]


def test_serials_stay_monotonic_across_wildcard_deletes():
    """Emptying the table does not reset the mint counter: serials keep
    counting upward for the table's lifetime."""
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
    assert table.remove(cookie=3) == 4  # wildcard path
    assert len(table) == 0
    _check_invariants(table, 0)
    table.add(_single_entry())
    assert all(e.serial >= high_water for e in table)


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
# A strict delete finds its victims through the bucket its match files
# under and filters there.


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


def test_repeated_strict_delete_returns_zero():
    """A strict delete's victims are gone when it returns: repeating it
    counts nothing."""
    table = FlowTable(table_id=0)
    e = _single_entry()
    twin = _single_entry()
    table.add(e)
    table.add(twin)
    assert table.remove(match=e.match, priority=e.priority) == 2
    assert len(table) == 0
    assert table.remove(match=e.match, priority=e.priority) == 0
    _check_invariants(table, 0)
    table.add(_single_entry())
    assert table.remove(match=e.match, priority=e.priority) == 1
    assert len(table) == 0


def test_strict_delete_straight_after_restore():
    """``restore()`` refiles the snapshot's entries: a strict delete
    resolves against the restored entries at once, including ones the
    pre-restore table had deleted."""
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
