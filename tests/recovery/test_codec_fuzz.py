"""Seeded fuzzer for the recovery codec and the journal reader.

Every decoder in ``repro.recovery.codec`` is fed mutated copies of what
its encoder writes: keys dropped, values swapped for JSON values of
another type, lists lengthened or shortened, tags renamed, values
wrapped in a list. Whatever arrives, a decoder must either return a
value that encodes back to exactly its input or raise ``CodecError`` —
any other exception escapes ``JournalReplay`` as a stray crash.

The same mutations then land on one record of a commit journal:
``JournalReplay.poll`` must apply it or raise ``CodecError`` naming the
record's LSN, and a poll that raises leaves the replay exactly as it
found it — never half-applied.

``SDT_PROP_CASES`` scales the case count (the nightly stress job runs
it elevated); a failure names the case index, the mutation and the
input.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.openflow.actions import (
    ApplyActions,
    Drop,
    GotoTable,
    Group,
    Output,
    SetQueue,
    SetVC,
    WriteMetadata,
)
from repro.openflow.channel import FlowDelete, FlowMod
from repro.openflow.flowtable import FlowEntry
from repro.openflow.groups import Bucket, GroupEntry
from repro.openflow.match import Match
from repro.recovery import JournalReplay, codec
from repro.recovery.codec import CodecError
from repro.recovery.journal import JOURNAL_NAME
from tests.proptools import prop_cases, seeded_cases

ROOT_SEED = 20261018

MOD = FlowMod(
    table_id=1,
    priority=60,
    match=Match(metadata=3, dst="10.0.0.2", vc=1),
    instructions=(ApplyActions((SetVC(2), SetQueue(2), Output(7))),),
    cookie=4,
)
CLASSIFY = FlowMod(
    table_id=0,
    priority=100,
    match=Match(in_port=5),
    instructions=(WriteMetadata(3), GotoTable(1)),
    cookie=4,
)
STRICT_DELETE = FlowDelete(cookie=4, table_id=1, priority=60, match=MOD.match)
GROUP = GroupEntry(
    9, "select", (Bucket((Output(1),), weight=2), Bucket((Drop(), Group(3))))
)

#: (decoder, encoded seed, encoder of the decoded value)
SEEDS = (
    (codec.decode_match, codec.encode_match(MOD.match), codec.encode_match),
    (codec.decode_action, codec.encode_action(Output(7)), codec.encode_action),
    (codec.decode_action, codec.encode_action(Drop()), codec.encode_action),
    (
        codec.decode_instruction,
        codec.encode_instruction(MOD.instructions[0]),
        codec.encode_instruction,
    ),
    (
        codec.decode_instructions,
        codec.encode_instructions(CLASSIFY.instructions),
        codec.encode_instructions,
    ),
    (codec.decode_message, codec.encode_message(MOD), codec.encode_message),
    (
        codec.decode_message,
        codec.encode_message(STRICT_DELETE),
        codec.encode_message,
    ),
    (
        codec.decode_message,
        codec.encode_message(FlowDelete(cookie=4)),
        codec.encode_message,
    ),
    (
        codec.decode_entry,
        codec.encode_entry(1, FlowEntry(60, MOD.match, MOD.instructions, 4)),
        lambda decoded: codec.encode_entry(*decoded),
    ),
    (codec.decode_group, codec.encode_group(GROUP), codec.encode_group),
)

#: JSON values of every type a mutation swaps in, tags among them
JUNK = (
    None, True, False, 0, -1, 7, 2**40, 1.5, "", "x", "mod", "del", "out",
    "drop", "meta", "goto", "apply", "select", [], [1], ["out"], {},
    {"kind": "mod"},
)


def _paths(value, path=()):
    """Every path into a JSON value, the root included."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, path + (i,))


def _mutate_at(rng, value, path):
    """``value`` with one mutation at ``path``; returns (new, what)."""
    if not path:
        return JUNK[int(rng.integers(len(JUNK)))], "root replaced"
    out = copy.deepcopy(value)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    choice = int(rng.integers(5))
    if choice == 0:
        del parent[key]
        return out, f"dropped {path}"
    if choice == 1:
        parent[key] = JUNK[int(rng.integers(len(JUNK)))]
        return out, f"replaced {path}"
    if choice == 2:
        parent[key] = [parent[key]]
        return out, f"wrapped {path}"
    if choice == 3 and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
        return out, f"repeated {path}"
    if isinstance(parent[key], list):
        parent[key] = parent[key][: int(rng.integers(len(parent[key]) + 1))]
        return out, f"truncated {path}"
    parent[key] = JUNK[int(rng.integers(len(JUNK)))]
    return out, f"replaced {path}"


def _mutate(rng, value):
    paths = list(_paths(value))
    for _ in range(int(rng.integers(1, 3))):
        value, what = _mutate_at(rng, value, paths[int(rng.integers(len(paths)))])
        paths = list(_paths(value))
    return value, what


def test_seeds_round_trip():
    for decode, data, encode in SEEDS:
        assert encode(decode(json.loads(json.dumps(data)))) == data


def test_decoders_round_trip_or_raise_codec_error():
    for case, rng in seeded_cases(prop_cases(400), ROOT_SEED, "codec"):
        decode, data, encode = SEEDS[case % len(SEEDS)]
        data, what = _mutate(rng, data)
        try:
            decoded = decode(data)
        except CodecError:
            continue
        except Exception as exc:
            raise AssertionError(
                f"case {case} ({what}): {exc!r} escaped {decode.__name__} "
                f"for {data!r}"
            ) from exc
        assert encode(decoded) == data, f"case {case} ({what}): {data!r}"


@pytest.mark.parametrize(
    "decode, data",
    [
        (codec.decode_message, {"kind": "mod"}),
        (codec.decode_message, "mod"),
        (codec.decode_instruction, []),
        (codec.decode_instruction, ["goto"]),
        (codec.decode_instruction, ["goto", "1"]),
        (codec.decode_action, ["out", True]),
        (codec.decode_match, [None] * 8),
        (codec.decode_group, {"id": 1, "type": "fanout", "buckets": []}),
    ],
)
def test_malformed_values_raise_codec_error(decode, data):
    with pytest.raises(CodecError):
        decode(data)


def _journal() -> list[dict]:
    """Two committed transactions on two switches, an aborted one and a
    session record, as journal records."""
    ops = {
        "phys0": [CLASSIFY, MOD],
        "phys1": [CLASSIFY._replace(match=Match(in_port=6))],
    }
    records = [
        {"type": "intent", "label": "deploy", "ops": ops},
        {"type": "commit", "txn": 0},
        {"type": "intent", "label": "edit", "ops": {"phys0": [STRICT_DELETE]}},
        {"type": "abort", "txn": 2, "reason": "channel"},
        {"type": "intent", "label": "edit", "ops": {"phys0": [STRICT_DELETE]}},
        {"type": "commit", "txn": 4},
        {
            "type": "session",
            "session": {"tenant": "alice", "state": "active"},
            "next_index": 1,
        },
    ]
    for lsn, record in enumerate(records):
        record["lsn"] = lsn
        if record["type"] == "intent":
            record["ops"] = {
                switch: [codec.encode_message(m) for m in messages]
                for switch, messages in record["ops"].items()
            }
    return records


def _write(path, records) -> None:
    with path.open("a", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _state(replay: JournalReplay):
    result = replay.result()
    tables = {
        name: [
            [codec.encode_entry(tid, entry) for entry in table]
            for tid, table in enumerate(snap.tables)
        ]
        for name, snap in result.switches.items()
    }
    return (
        tables, json.dumps(result.state, sort_keys=True),
        replay.pending_transactions, replay.replayed, replay.journal_records,
    )


def test_a_corrupt_journal_record_is_applied_whole_or_raises_and_changes_nothing(
    tmp_path,
):
    records = _journal()
    for case, rng in seeded_cases(prop_cases(120), ROOT_SEED, "journal"):
        state_dir = tmp_path / f"case-{case}"
        state_dir.mkdir()
        journal = state_dir / JOURNAL_NAME
        at = int(rng.integers(len(records)))
        bad, what = _mutate(rng, records[at])
        replay = JournalReplay(state_dir, num_tables=2)
        # a warm follower: the records before the corrupt one are
        # already applied when it arrives
        _write(journal, records[:at])
        replay.poll()
        before = _state(replay)
        _write(journal, [bad] + records[at + 1:])
        try:
            replay.poll()
        except CodecError as exc:
            lsn = bad.get("lsn") if isinstance(bad, dict) else bad
            assert f"journal record {lsn!r:.60}" in str(exc), (
                f"case {case} ({what}): {exc}"
            )
            assert _state(replay) == before, f"case {case} ({what})"
            with pytest.raises(CodecError):
                replay.poll()  # the same records, read again
            assert _state(replay) == before, f"case {case} ({what})"
        except Exception as exc:
            raise AssertionError(
                f"case {case} ({what}): {exc!r} escaped JournalReplay.poll "
                f"for {bad!r}"
            ) from exc


def test_the_unmutated_journal_replays(tmp_path):
    records = _journal()
    _write(tmp_path / JOURNAL_NAME, records)
    replay = JournalReplay(tmp_path, num_tables=2)
    assert replay.poll() == len(records)
    assert replay.replayed == 2 and replay.pending_transactions == []
    tables = _state(replay)[0]
    # the deploy's three rows, less the one the committed strict delete
    # removed
    assert sum(len(t) for sw in tables.values() for t in sw) == 2
    assert replay.result().state["sessions"][0]["tenant"] == "alice"
