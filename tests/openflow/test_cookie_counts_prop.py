"""Differential property test: maintained cookie counts ≡ a walk.

A flow table keeps entries per cookie in step with its membership, and
:meth:`~repro.openflow.flowtable.FlowTable.cookie_counts`,
:meth:`~repro.openflow.switch.OpenFlowSwitch.occupancy_by_cookie` and
``count_entries(cookie=)`` read those counts instead of walking the
store. Seeded sequences drive a bare table (``add_batch``,
``add_pending``, building the pending rows, strict / match / priority /
cookie deletes, ``clear``, ``restore``) and a switch (rule-set runs,
loose adds, every delete shape, snapshots, restores, packets). After
every step the counts must equal a walk of the store plus the pending
parts' row counts, and hold no zero count.

Cases are seeded (reproduce with the printed case index); counts scale
with ``SDT_PROP_CASES`` for CI's stress job.
"""

from __future__ import annotations

from collections import Counter

from repro.openflow import (
    ApplyActions,
    Match,
    OpenFlowSwitch,
    Output,
    PacketHeader,
)
from repro.openflow.flowtable import FlowEntry, FlowTable, _shape_key
from tests.openflow.test_pending_rows_prop import (
    COOKIES,
    PORTS,
    TABLES,
    _pick,
    _step,
)
from tests.proptools import prop_cases, seeded_cases

ROOT_SEED = 20261019
NUM_CASES = prop_cases(60)
STEPS = 40
OUT = (ApplyActions((Output(1),)),)


def _walked(table: FlowTable) -> Counter:
    """Entries per cookie, the slow way: every stored entry, plus each
    pending part's rows."""
    counts = Counter(e.cookie for e in table._store.values())
    for _serial, rows, cookie, _build in table._pending:
        counts[cookie] += rows
    return counts


def _assert_counted(table: FlowTable, where) -> None:
    assert table.cookie_counts() == _walked(table), where
    assert 0 not in table._cookies.values(), where


def _entry(rng) -> FlowEntry:
    """A loose entry from a tiny universe, so deletes find twins."""
    if rng.random() < 0.15:  # only the fallback scan serves it
        match = Match(metadata=int(rng.integers(1, 3)), metadata_mask=0x3)
    else:
        match = Match(
            metadata=int(rng.integers(1, 3)), dst=_pick(rng, ("h0", "h1"))
        )
    return FlowEntry(
        _pick(rng, (50, 60)), match, OUT, cookie=_pick(rng, COOKIES)
    )


def _part(rng) -> tuple[int, int, object]:
    """One pending part: ``rows`` fresh entries that all carry one
    cookie, built only when a reader asks."""
    rows = int(rng.integers(0, 4))
    cookie = _pick(rng, COOKIES)
    entries = [_entry(rng) for _ in range(rows)]
    for e in entries:
        e.cookie = cookie

    def build(out, keys):
        out.extend(entries)
        keys.extend(_shape_key(e.match) for e in entries)

    return rows, cookie, build


def _table_step(rng, table: FlowTable, snapshots: list) -> str:
    """One random write (or build) on a bare table; returns its kind."""
    op = rng.random()
    stored = list(table._store.values())
    if op < 0.2:
        table.add_batch([_entry(rng) for _ in range(int(rng.integers(1, 4)))])
        return "add_batch"
    if op < 0.4:
        table.add_pending([_part(rng) for _ in range(int(rng.integers(1, 4)))])
        return "add_pending"
    if op < 0.47:
        table.lookup(1, int(rng.integers(1, 3)), PacketHeader(src="h0", dst="h1"))
        return "build"
    if op < 0.57:
        victim = _pick(rng, stored) if stored else _entry(rng)
        table.remove(
            match=victim.match, priority=victim.priority,
            cookie=_pick(rng, (victim.cookie, None)),
        )
        return "strict"
    if op < 0.62:
        victim = _pick(rng, stored) if stored else _entry(rng)
        table.remove(match=victim.match)
        return "match"
    if op < 0.66:
        table.remove(priority=_pick(rng, (50, 60)))
        return "priority"
    if op < 0.8:
        table.remove(cookie=_pick(rng, COOKIES))
        return "cookie"
    if op < 0.83:
        table.remove()
        return "remove-all"
    if op < 0.86:
        table.clear()
        return "clear"
    if op < 0.93:
        snapshots.append(table.snapshot())
        return "snapshot"
    if snapshots:
        table.restore(snapshots[int(rng.integers(len(snapshots)))])
        return "restore"
    return "noop"


def test_table_counts_equal_a_walk_after_every_write():
    seen: Counter = Counter()
    for case, rng in seeded_cases(NUM_CASES, ROOT_SEED, "table"):
        table = FlowTable(0)
        snapshots: list = []
        for step in range(STEPS):
            kind = _table_step(rng, table, snapshots)
            seen[kind] += 1
            _assert_counted(table, (case, step, kind))
    # every write path ran somewhere
    assert set(seen) >= {
        "add_batch", "add_pending", "build", "strict", "match",
        "priority", "cookie", "remove-all", "clear", "restore",
    }, seen


def test_switch_counts_equal_a_walk_after_every_step():
    seen: Counter = Counter()
    for case, rng in seeded_cases(NUM_CASES, ROOT_SEED, "switch"):
        capacity = int(rng.choice([10_000, 10_000, 40]))
        twins = tuple(
            OpenFlowSwitch(
                "p0", PORTS, num_tables=TABLES, flow_table_capacity=capacity
            )
            for _ in range(2)
        )
        snapshots: list = []
        for step in range(STEPS):
            kind, _outcomes = _step(rng, twins, snapshots)
            seen[kind] += 1
            for switch in twins:
                where = (case, step, kind)
                walked: Counter = Counter()
                for table in switch.tables:
                    _assert_counted(table, where)
                    walked.update(_walked(table))
                assert switch.occupancy_by_cookie() == dict(walked), where
                for cookie in (*COOKIES, 99):
                    assert switch.count_entries(cookie=cookie) == walked[
                        cookie
                    ], where
    assert set(seen) >= {
        "run", "add_flow", "add_batch", "strict", "cookie", "wildcard",
        "restore", "forward",
    }, seen
