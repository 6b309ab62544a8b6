"""Seeded fuzzer for the journal's line framing.

``tail_jsonl`` frames the commit journal: one JSON object per
newline-terminated line. Only a final fragment with no newline is torn
(a kill mid-append) and is left for a later read; a complete line that
is not a JSON object is corrupt and raises, naming its byte offset, so
no record after it is silently dropped. ``JournalReplay.poll`` surfaces
that as ``CodecError`` and leaves the replay as it found it.

The cases, each seeded:

* torn tails: the journal cut at a random byte reads back exactly the
  complete lines before the cut, replays them, and replays the rest
  once the writer finishes; a restarted ``CommitJournal`` cuts the
  fragment off before it appends;
* interleaved writer and reader: the writer flushes the journal in
  random-sized pieces and a follower polls after each one — it sees
  every record once, in order, and ends where a one-shot replay ends;
* bytes flipped mid-file: the poll either consumes every complete line
  or raises ``CodecError`` with nothing applied, twice over.

None may crash, half-apply or silently stop. ``SDT_PROP_CASES`` scales
the case count; a failure names the case index and what was done.
"""

from __future__ import annotations

import json

import pytest

from repro.recovery import CommitJournal, JournalReplay
from repro.recovery.codec import CodecError
from repro.recovery.journal import JOURNAL_NAME
from repro.telemetry import tail_jsonl
from tests.proptools import prop_cases, seeded_cases
from tests.recovery.test_codec_fuzz import _journal, _state

ROOT_SEED = 20261019


def _encoded() -> bytes:
    return b"".join(
        json.dumps(r, sort_keys=True).encode() + b"\n" for r in _journal()
    )


def _complete_lines(data: bytes) -> tuple[list[bytes], int]:
    """The newline-terminated non-blank lines of ``data`` and the byte
    just past the last newline."""
    end = data.rfind(b"\n") + 1
    return [ln for ln in data[:end].split(b"\n") if ln.strip()], end


def _one_shot(tmp_path) -> tuple:
    path = tmp_path / "reference"
    path.mkdir()
    (path / JOURNAL_NAME).write_bytes(_encoded())
    replay = JournalReplay(path, num_tables=2)
    replay.poll()
    return _state(replay)


def test_a_corrupt_complete_line_raises_naming_its_offset(tmp_path):
    path = tmp_path / "j.jsonl"
    path.write_bytes(b'{"a":1}\n{"b":\n{"c":3}\n')
    with pytest.raises(ValueError, match="byte 8"):
        tail_jsonl(path)
    path.write_bytes(b'{"a":1}\n[2]\n')
    with pytest.raises(ValueError, match=r"record \[2\] at byte 8"):
        tail_jsonl(path)
    path.write_bytes(b'{"a":1}\n{"b":2}\n{"c":')  # torn, not corrupt
    assert tail_jsonl(path) == ([{"a": 1}, {"b": 2}], 16)
    assert tail_jsonl(path, 8) == ([{"b": 2}], 16)


def test_a_corrupt_line_stops_the_replay_with_codec_error(tmp_path):
    data = _encoded()
    first = data.index(b"\n") + 1
    (tmp_path / JOURNAL_NAME).write_bytes(
        data[:first] + b"{garbage\n" + data[first:]
    )
    replay = JournalReplay(tmp_path, num_tables=2)
    before = _state(replay)
    with pytest.raises(CodecError, match=f"byte {first}"):
        replay.poll()
    assert _state(replay) == before


def test_torn_tails_read_what_is_complete_and_resume(tmp_path):
    data = _encoded()
    reference = _one_shot(tmp_path)
    for case, rng in seeded_cases(prop_cases(60), ROOT_SEED, "torn"):
        cut = int(rng.integers(1, len(data)))
        state_dir = tmp_path / f"case-{case}"
        state_dir.mkdir()
        path = state_dir / JOURNAL_NAME
        path.write_bytes(data[:cut])
        lines, end = _complete_lines(data[:cut])
        where = f"case {case} (cut at byte {cut})"

        records, offset = tail_jsonl(path)
        assert records == [json.loads(ln) for ln in lines], where
        assert offset == end, where
        replay = JournalReplay(state_dir, num_tables=2)
        assert replay.poll() == len(lines), where
        with path.open("ab") as fh:
            fh.write(data[cut:])  # the writer finishes the line
        replay.poll()
        assert _state(replay) == reference, where

        path.write_bytes(data[:cut])
        restarted = CommitJournal(path)  # a kill, then a restart
        assert path.stat().st_size == end, where
        assert len(restarted) == (
            json.loads(lines[-1])["lsn"] + 1 if lines else 0
        ), where
        lsn = restarted.append_commit(restarted.append_intent("edit", {}))
        assert [r["lsn"] for r in CommitJournal(path).read()][-2:] == [
            lsn - 1, lsn
        ], where


def test_a_follower_polling_between_partial_flushes_sees_every_record_once(
    tmp_path,
):
    data = _encoded()
    total = len(_complete_lines(data)[0])
    reference = _one_shot(tmp_path)
    for case, rng in seeded_cases(prop_cases(60), ROOT_SEED, "interleave"):
        state_dir = tmp_path / f"case-{case}"
        state_dir.mkdir()
        path = state_dir / JOURNAL_NAME
        path.touch()
        replay = JournalReplay(state_dir, num_tables=2)
        at, seen, pieces = 0, 0, []
        while at < len(data):
            step = int(rng.integers(1, 80))
            pieces.append(step)
            with path.open("ab") as fh:
                fh.write(data[at:at + step])
            at += step
            seen += replay.poll()
        where = f"case {case} (pieces {pieces})"
        assert seen == total, where
        assert _state(replay) == reference, where


def _flip(rng, data: bytes) -> tuple[bytes, list]:
    """``data`` with one to three bytes overwritten, newlines among the
    values; the final newline stays."""
    out = bytearray(data)
    flips = []
    for _ in range(int(rng.integers(1, 4))):
        at = int(rng.integers(len(out) - 1))
        value = int(rng.choice([10, 32, 34, 44, 48, 57, 123, 125, 255]))
        flips.append((at, value))
        out[at] = value
    return bytes(out), flips


def test_flipped_bytes_replay_every_line_or_raise_and_change_nothing(tmp_path):
    data = _encoded()
    for case, rng in seeded_cases(prop_cases(120), ROOT_SEED, "flip"):
        state_dir = tmp_path / f"case-{case}"
        state_dir.mkdir()
        path = state_dir / JOURNAL_NAME
        bad, flips = _flip(rng, data)
        where = f"case {case} (flips {flips})"
        # a warm follower: the lines before the first flip are applied
        first = min(at for at, _ in flips)
        path.write_bytes(bad[:bad.rfind(b"\n", 0, first) + 1])
        replay = JournalReplay(state_dir, num_tables=2)
        warm = replay.poll()
        before = _state(replay)
        path.write_bytes(bad)
        try:
            polled = replay.poll()
        except CodecError:
            assert _state(replay) == before, where
            with pytest.raises(CodecError):
                replay.poll()  # the same bytes, read again
            assert _state(replay) == before, where
            continue
        except Exception as exc:
            raise AssertionError(f"{where}: {exc!r} escaped poll") from exc
        lines, end = _complete_lines(bad)
        assert warm + polled == len(lines), where
        assert tail_jsonl(path) == ([json.loads(ln) for ln in lines], end), where
