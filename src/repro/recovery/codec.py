"""JSON-safe serialization of control-plane state (snapshots, journal).

The durability layer (DESIGN.md §7) writes two kinds of artifacts:
periodic controller snapshots and an append-only commit journal. Both
must round-trip the full staged-message and flow-entry vocabulary —
Match, actions, instructions, FlowMod/FlowDelete, group entries —
**bit-exactly**: recovery correctness is proven by comparing replayed
flow tables against an uninterrupted run's, so any lossy encoding
would surface as a false drift report.

Encodings are plain lists/dicts of scalars (JSON value types only):

* ``Match`` → its field list (a NamedTuple: ``list(m)`` / ``Match(*d)``)
* actions → tagged lists: ``["out", port]``, ``["queue", q]``,
  ``["vc", v]``, ``["drop"]``, ``["group", gid]``
* instructions → ``["meta", value, mask]``, ``["goto", table]``,
  ``["apply", [actions...]]``
* flow entries → ``{"table", "priority", "match", "instructions",
  "cookie"}`` (counters are soft state and intentionally dropped)
* staged messages → ``{"kind": "mod"|"del", ...}``: a FlowMod is a
  flow entry's fields plus its kind
"""

from __future__ import annotations

from typing import Any

from repro.openflow.actions import (
    Action,
    ApplyActions,
    Drop,
    GotoTable,
    Group,
    Instruction,
    Output,
    SetQueue,
    SetVC,
    WriteMetadata,
)
from repro.openflow.channel import FlowDelete, FlowMod
from repro.openflow.flowtable import FlowEntry
from repro.openflow.groups import Bucket, GroupEntry
from repro.openflow.match import Match
from repro.util.errors import ReproError, SimulationError


class CodecError(ReproError):
    """An artifact holds something this codec cannot round-trip."""


# --- shape checks ----------------------------------------------------------
# A decoder takes exactly what its encoder writes: JSON types are
# compared exactly (a JSON ``true`` is not an integer), so a value that
# decodes at all encodes back to itself, and anything else — a missing
# key, a wrong arity, a wrong type — is a CodecError.

_INT = (int,)
_OPT_INT = (int, type(None))
_OPT_STR = (str, type(None))


def typed(value: Any, kinds: tuple[type, ...], what: object) -> Any:
    """``value`` if its type is exactly one of ``kinds``."""
    if type(value) not in kinds:
        raise CodecError(f"{what} is {value!r:.60}")
    return value


def field(data: Any, key: str, kinds: tuple[type, ...]) -> Any:
    """``data[key]`` of a decoded JSON object, typed by :func:`typed`."""
    if type(data) is not dict or key not in data:
        raise CodecError(f"no {key!r} in {data!r:.60}")
    return typed(data[key], kinds, repr(key))


def _items(data: Any, arity: int | None, what: str) -> list:
    """A decoded JSON array, of ``arity`` items unless that is None."""
    if type(data) is not list or arity is not None and len(data) != arity:
        raise CodecError(f"{what} is {data!r:.60}")
    return data


# --- matches ---------------------------------------------------------------

#: the JSON types of Match's fields, in field order
_MATCH_TYPES = (
    _OPT_INT, _OPT_INT, _INT, _OPT_STR, _OPT_STR, _OPT_STR,
    _OPT_INT, _OPT_INT, _OPT_INT,
)


def encode_match(match: Match) -> list:
    return list(match)


def decode_match(data: list) -> Match:
    _items(data, len(_MATCH_TYPES), "match")
    return Match(*map(typed, data, _MATCH_TYPES, Match._fields))


# --- actions and instructions ---------------------------------------------
# A tagged list: the tag, then the value's fields in order — all
# integers, except ``apply``'s list of actions.

_ACTIONS = {"out": Output, "queue": SetQueue, "vc": SetVC, "drop": Drop,
            "group": Group}
_INSTRUCTIONS = {"meta": WriteMetadata, "goto": GotoTable}
_TAGS = {cls: tag for tags in (_ACTIONS, _INSTRUCTIONS)
         for tag, cls in tags.items()}


def _encode_tagged(value: Any, classes: dict[str, type], what: str) -> list:
    tag = _TAGS.get(type(value))
    if tag not in classes:
        raise CodecError(f"unknown {what} {value!r}")
    return [tag, *value.__dict__.values()]


def _decode_tagged(data: Any, classes: dict[str, type], what: str) -> Any:
    items = _items(data, None, what)
    cls = classes.get(items[0]) if items and type(items[0]) is str else None
    if cls is None or len(items) != 1 + len(cls.__dataclass_fields__):
        raise CodecError(f"{what} is {data!r:.60}")
    return cls(*(typed(arg, _INT, what) for arg in items[1:]))


def encode_action(action: Action) -> list:
    return _encode_tagged(action, _ACTIONS, "action")


def decode_action(data: list) -> Action:
    return _decode_tagged(data, _ACTIONS, "action")


def encode_instruction(ins: Instruction) -> list:
    if isinstance(ins, ApplyActions):
        return ["apply", [encode_action(a) for a in ins.actions]]
    return _encode_tagged(ins, _INSTRUCTIONS, "instruction")


def decode_instruction(data: list) -> Instruction:
    if type(data) is list and data[:1] == ["apply"]:
        actions = _items(_items(data, 2, "instruction")[1], None, "apply")
        return ApplyActions(tuple(decode_action(a) for a in actions))
    return _decode_tagged(data, _INSTRUCTIONS, "instruction")


def encode_instructions(instructions) -> list:
    return [encode_instruction(i) for i in instructions]


def decode_instructions(data: list) -> tuple[Instruction, ...]:
    return tuple(
        decode_instruction(i) for i in _items(data, None, "instructions")
    )


# --- flow entries (snapshot currency) and staged control messages --------

def encode_entry(table_id: int, entry: FlowEntry | FlowMod) -> dict[str, Any]:
    """A rule's table, priority, match, instructions and cookie: a
    snapshot's flow entry, and the body of a journaled FlowMod.
    Counters (packet/byte) are deliberately dropped: they are soft
    state a real switch would have kept, and recovery compares *rule*
    state, not traffic history."""
    return {
        "table": table_id,
        "priority": entry.priority,
        "match": encode_match(entry.match),
        "instructions": encode_instructions(entry.instructions),
        "cookie": entry.cookie,
    }


def _decode_rule(data: Any) -> tuple:
    """What :func:`encode_entry` wrote, in FlowMod field order."""
    return (
        field(data, "table", _INT),
        field(data, "priority", _INT),
        decode_match(field(data, "match", (list,))),
        decode_instructions(field(data, "instructions", (list,))),
        field(data, "cookie", _INT),
    )


def decode_entry(data: dict[str, Any]) -> tuple[int, FlowEntry]:
    table_id, priority, match, instructions, cookie = _decode_rule(data)
    return table_id, FlowEntry(priority, match, instructions, cookie)


def encode_message(msg: FlowMod | FlowDelete) -> dict[str, Any]:
    if isinstance(msg, FlowMod):
        return {"kind": "mod", **encode_entry(msg.table_id, msg)}
    if isinstance(msg, FlowDelete):
        return {
            "kind": "del",
            "cookie": msg.cookie,
            "table": msg.table_id,
            "priority": msg.priority,
            "match": None if msg.match is None else encode_match(msg.match),
        }
    raise CodecError(f"unjournalable message {msg!r}")


def decode_message(data: dict[str, Any]) -> FlowMod | FlowDelete:
    kind = field(data, "kind", (str,))
    if kind == "mod":
        return FlowMod(*_decode_rule(data))
    if kind == "del":
        match = field(data, "match", (list, type(None)))
        return FlowDelete(
            cookie=field(data, "cookie", _OPT_INT),
            table_id=field(data, "table", _OPT_INT),
            priority=field(data, "priority", _OPT_INT),
            match=None if match is None else decode_match(match),
        )
    raise CodecError(f"unknown message kind {kind!r}")


# --- groups ----------------------------------------------------------------

def encode_group(group: GroupEntry) -> dict[str, Any]:
    return {
        "id": group.group_id,
        "type": group.group_type,
        "buckets": [
            {"actions": [encode_action(a) for a in b.actions],
             "weight": b.weight}
            for b in group.buckets
        ],
    }


def decode_group(data: dict[str, Any]) -> GroupEntry:
    group_id = field(data, "id", _INT)
    group_type = field(data, "type", (str,))
    buckets = tuple(
        Bucket(
            tuple(decode_action(a) for a in field(b, "actions", (list,))),
            weight=field(b, "weight", _INT),
        )
        for b in field(data, "buckets", (list,))
    )
    try:
        return GroupEntry(group_id, group_type, buckets)
    except SimulationError as exc:
        raise CodecError(str(exc)) from None
