"""Differential property test: FlowTable ≡ the sorted list it replaced.

:class:`FlowTable` keeps its entries in arrival order and computes
priority order where it is read. The reference here *is* the algorithm
that representation replaced — one list held in (priority desc,
arrival asc) order by a bisect insert on every write, scanned linearly
by lookup — so any way the arrival-ordered store could disagree with
"sorted on write" shows up as a diverging snapshot, length, delete
count or lookup winner under random operation sequences: single and
batched adds, strict and cookie deletes, snapshots, restores of older
snapshots, re-adds of the same entry object after its delete, and
deletes issued from inside an iteration over the table.

Cases are seeded (reproduce by index); counts scale with
``SDT_PROP_CASES`` for CI's stress job.
"""

from __future__ import annotations

from bisect import insort_right

from repro.openflow.flowtable import FlowEntry, FlowTable
from tests.openflow.test_flowtable_lookup_prop import (
    PRIORITIES,
    _entry,
    _packet,
    _random_match,
)
from tests.proptools import prop_cases, seeded_cases

ROOT_SEED = 20261003
NUM_CASES = prop_cases(80)


class _SortedListModel:
    """A flow table as one priority-sorted list."""

    def __init__(self) -> None:
        self.entries: list[FlowEntry] = []

    def add_batch(self, batch) -> None:
        for e in batch:
            # right of every equal-priority incumbent: first added wins
            insort_right(self.entries, e, key=lambda x: -x.priority)

    def remove(self, *, cookie=None, match=None, priority=None) -> int:
        kept = [
            e
            for e in self.entries
            if not (
                (cookie is None or e.cookie == cookie)
                and (match is None or e.match == match)
                and (priority is None or e.priority == priority)
            )
        ]
        removed = len(self.entries) - len(kept)
        self.entries = kept
        return removed

    def snapshot(self) -> tuple[FlowEntry, ...]:
        return tuple(self.entries)

    def restore(self, snap: tuple[FlowEntry, ...]) -> None:
        self.entries = list(snap)

    def lookup(self, in_port, metadata, header) -> FlowEntry | None:
        for e in self.entries:
            if e.match.matches(in_port, metadata, header):
                return e
        return None

    def __iter__(self):
        return iter(self.entries)


def _ids(entries) -> list[int]:
    return [id(e) for e in entries]


def _strict_filter(rng, model: _SortedListModel) -> dict:
    """An existing entry's (match, priority) half the time, a random
    (often absent) one otherwise; with or without a cookie."""
    if model.entries and rng.random() < 0.5:
        victim = model.entries[int(rng.integers(len(model.entries)))]
        match, priority = victim.match, victim.priority
    else:
        match, priority = _random_match(rng), int(rng.choice(PRIORITIES))
    cookie = int(rng.integers(0, 3)) if rng.random() < 0.5 else None
    return {"match": match, "priority": priority, "cookie": cookie}


def _walk_and_delete(table, picks) -> tuple[list[int], list[int]]:
    """Iterate ``table``, strict-deleting the picked positions' entries
    from inside the loop; the entries walked and each delete's count."""
    walked, counts = [], []
    for e, pick in zip(table, picks):
        walked.append(id(e))
        if pick:
            counts.append(
                table.remove(
                    match=e.match, priority=e.priority, cookie=e.cookie
                )
            )
    return walked, counts


def test_flowtable_matches_the_sorted_list_model():
    for case, rng in seeded_cases(NUM_CASES, ROOT_SEED, "model"):
        table, model = FlowTable(table_id=0), _SortedListModel()
        snapshots: list[tuple[FlowEntry, ...]] = []
        seen: list[FlowEntry] = []  # every entry ever added
        for step in range(40):
            where = f"case {case} step {step}"
            op = rng.random()
            if op < 0.2:
                e = _entry(rng)
                seen.append(e)
                table.add(e)
                model.add_batch([e])
            elif op < 0.4:
                batch = [_entry(rng) for _ in range(int(rng.integers(0, 8)))]
                seen.extend(batch)
                table.add_batch(batch)
                model.add_batch(batch)
            elif op < 0.6:
                flt = _strict_filter(rng, model)
                assert table.remove(**flt) == model.remove(**flt), where
            elif op < 0.67:
                cookie = int(rng.integers(0, 3))
                assert table.remove(cookie=cookie) == model.remove(
                    cookie=cookie
                ), where
            elif op < 0.75:
                snapshots.append(table.snapshot())
            elif op < 0.82 and snapshots:
                # any earlier snapshot, not just the latest
                snap = snapshots[int(rng.integers(len(snapshots)))]
                table.restore(snap)
                model.restore(snap)
            elif op < 0.9:
                # the same objects again, after a delete took them out
                members = set(_ids(model.entries))
                gone = [e for e in seen if id(e) not in members]
                again = [
                    gone[i]
                    for i in rng.permutation(len(gone))[: rng.integers(0, 3)]
                ]
                if again and rng.random() < 0.5:
                    table.add(again[0])
                    model.add_batch(again[:1])
                else:
                    table.add_batch(again)
                    model.add_batch(again)
            else:
                # deletes issued while iterating: the walk covers the
                # membership as it stood when the iteration began
                picks = rng.random(len(model.entries)) < 0.4
                assert _walk_and_delete(table, picks) == _walk_and_delete(
                    model, picks
                ), where
            assert _ids(table.snapshot()) == _ids(model.snapshot()), where
            assert _ids(table) == _ids(model), where
            assert len(table) == len(model.entries), where
            for _ in range(4):
                packet = _packet(rng)
                assert table.lookup(*packet) is model.lookup(*packet), where
