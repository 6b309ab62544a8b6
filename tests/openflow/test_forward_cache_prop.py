"""Differential property test: memoised forwarding ≡ walking the pipeline.

:meth:`OpenFlowSwitch.forward` remembers the pipeline's outcome per
``(in_port, header)`` and replays its side effects for a repeat packet.
Twin switches are fed the same seeded sequence of control-plane
operations and packets; one has its memo emptied before every packet
(white-box, here only — the product has no switch for it), so it always
walks. After every packet the two must agree on the decision, every
port counter and every installed entry's packet/byte counts, and at the
end — with a tracer installed — on the ``switch.packet_in`` events and
``sdt_switch_match_miss_total``.

The rule zoo is what synthesis emits (``in_port`` classification into
``(metadata, dst[, vc])`` routing) plus what could break a memo: a
masked-metadata rule, ``SetVC`` feeding a later table's match,
``SetQueue``, ``Drop``, ``select`` and ``all`` groups that are replaced
and removed under the rules that name them, a table-1 miss after a
table-0 hit, and equal-priority overlaps. Installs and removals arrive
every way the switch accepts them — ``add_flow``, ``add_flow_batch``
with loose mods and with a :class:`FlowModRun`, strict, cookie and
whole-table ``remove_flows``, ``snapshot``/``restore``, group adds and
removes — and three ways it merely tolerates: ``switch.tables[i]``'s
own ``add(...)``, ``remove(...)`` and ``clear()`` behind its back.

Cases are seeded (reproduce by index); counts scale with
``SDT_PROP_CASES`` for CI's stress job.
"""

from __future__ import annotations

from functools import partial

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
from repro.openflow.channel import FlowMod
from repro.openflow.flowtable import FlowEntry, _shape_key
from repro.openflow.groups import Bucket, GroupEntry
from repro.openflow.match import Match, PacketHeader
from repro.openflow.switch import FlowModRun, OpenFlowSwitch, PendingRows
from repro.telemetry import metrics, trace
from repro.util.errors import SimulationError
from tests.proptools import prop_cases, seeded_cases

ROOT_SEED = 20261005
NUM_CASES = prop_cases(60)

#: tiny universes: repeats are what exercise a memo
PORTS = (1, 2, 3, 4)
HOSTS = ("h0", "h1", "h2")
SUBS = (1, 2)
VCS = (0, 1)
GROUPS = (1, 2)
COOKIES = (10, 11, 12)


class _Run(FlowModRun):
    """A bulk install built from loose mods."""

    def __init__(self, mods) -> None:
        self.mods = list(mods)

    def __len__(self) -> int:
        return len(self.mods)

    def __iter__(self):
        return iter(self.mods)

    def pending_rows(self) -> list[PendingRows]:
        by_table: dict[int, list[FlowMod]] = {}
        for mod in self.mods:
            by_table.setdefault(mod.table_id, []).append(mod)
        return [
            PendingRows(
                table_id,
                [(1, m.cookie, partial(_build, m)) for m in mods],
                [m.instructions for m in mods],
            )
            for table_id, mods in by_table.items()
        ]


def _entry(mod: FlowMod) -> FlowEntry:
    return FlowEntry(
        mod.priority, mod.match, tuple(mod.instructions), cookie=mod.cookie
    )


def _build(mod: FlowMod, entries: list, keys: list) -> None:
    entries.append(_entry(mod))
    keys.append(_shape_key(mod.match))


def _pick(rng, options):
    return options[int(rng.integers(0, len(options)))]


def _random_rule(rng) -> FlowMod:
    cookie = _pick(rng, COOKIES)
    port, host, sub = _pick(rng, PORTS), _pick(rng, HOSTS), _pick(rng, SUBS)
    kind = rng.random()
    if kind < 0.15:  # classify; sub 3 has no routes: table-1 miss
        return FlowMod(
            0, 100, Match(in_port=port),
            (WriteMetadata(_pick(rng, (*SUBS, 3))), GotoTable(1)), cookie,
        )
    if kind < 0.30:
        return FlowMod(
            1, 50, Match(metadata=sub, dst=host),
            (ApplyActions((Output(port),)),), cookie,
        )
    if kind < 0.45:  # VC lift, then a later table keyed on the new VC
        return FlowMod(
            1, 60, Match(metadata=sub, dst=host, vc=_pick(rng, VCS)),
            (
                ApplyActions((
                    SetVC(_pick(rng, VCS)),
                    SetQueue(int(rng.integers(0, 4))),
                    Output(port),
                )),
                *((GotoTable(2),) if rng.random() < 0.5 else ()),
            ),
            cookie,
        )
    if kind < 0.52:
        return FlowMod(
            2, 40, Match(vc=_pick(rng, VCS)),
            (ApplyActions((Output(port),)),), cookie,
        )
    if kind < 0.60:  # only the fallback scan serves a partial mask
        return FlowMod(
            1, 55, Match(metadata=sub, metadata_mask=0x1, dst=host),
            (ApplyActions((Output(port),)),), cookie,
        )
    if kind < 0.68:
        return FlowMod(
            1, 70, Match(metadata=sub, dst=host),
            (ApplyActions((Output(port), Drop())),), cookie,
        )
    if kind < 0.90:
        return FlowMod(
            1, 65, Match(metadata=sub, dst=host),
            (ApplyActions((Group(_pick(rng, GROUPS)),)),), cookie,
        )
    # overlaps the (metadata, dst) routes at their own priority
    match = Match(dst=host) if rng.random() < 0.5 else Match(metadata=sub)
    return FlowMod(1, 50, match, (ApplyActions((Output(port),)),), cookie)


def _random_group(rng) -> GroupEntry:
    buckets = [
        Bucket(
            (
                Output(_pick(rng, PORTS)),
                *((SetVC(_pick(rng, VCS)),) if rng.random() < 0.3 else ()),
            ),
            weight=int(rng.integers(1, 4)),
        )
        for _ in range(int(rng.integers(1, 4)))
    ]
    return GroupEntry(
        _pick(rng, GROUPS), "select" if rng.random() < 0.6 else "all", buckets
    )


def _random_flow(rng) -> tuple[int, PacketHeader]:
    header = PacketHeader(
        src=_pick(rng, HOSTS), dst=_pick(rng, HOSTS),
        proto=_pick(rng, ("roce", "tcp")), src_port=int(rng.integers(0, 2)),
        vc=_pick(rng, VCS),
    )
    return _pick(rng, PORTS), header


def _random_ops(rng) -> list[tuple]:
    # a few flows, met again and again: repeats are what a memo serves
    flows = [_random_flow(rng) for _ in range(8)]
    # both groups and the classifiers first, so most packets get far
    ops: list[tuple] = [("add_group", _random_group(rng)) for _ in range(3)]
    ops += [
        ("add_flow", FlowMod(
            0, 100, Match(in_port=p),
            (WriteMetadata(_pick(rng, SUBS)), GotoTable(1)), COOKIES[0],
        ))
        for p in PORTS
    ]
    ops.append(("add_batch", [_random_rule(rng) for _ in range(16)]))
    snapshots = 0
    for _ in range(int(rng.integers(15, 30))):
        kind = rng.random()
        rule = _random_rule(rng)
        if kind < 0.18:
            ops.append(("add_flow", rule))
        elif kind < 0.26:
            ops.append(("add_batch", [_random_rule(rng) for _ in range(3)]))
        elif kind < 0.34:
            ops.append(("add_run", [_random_rule(rng) for _ in range(4)]))
        elif kind < 0.46:
            ops.append(("remove_strict", rule))
        elif kind < 0.50:
            ops.append(("remove_cookie", rule.cookie))
        elif kind < 0.56:
            ops.append(("snapshot",))
            snapshots += 1
        elif kind < 0.62 and snapshots:
            ops.append(("restore", int(rng.integers(0, snapshots))))
        elif kind < 0.70:
            ops.append(("add_group", _random_group(rng)))
        elif kind < 0.74:
            ops.append(("remove_group", _pick(rng, GROUPS)))
        elif kind < 0.82:
            ops.append(("table_add", rule))
        elif kind < 0.90:
            ops.append(("table_remove", rule))
        elif kind < 0.95:
            ops.append(("wipe_table", int(rng.integers(1, 3))))
        else:
            ops.append(("table_clear", int(rng.integers(1, 3))))
        # a burst between changes, so the same packet meets the tables
        # again both before and after each one
        ops += [
            ("packet", *_pick(rng, flows), int(rng.integers(64, 1500)))
            for _ in range(int(rng.integers(0, 14)))
        ]
    return ops


def _state(switch: OpenFlowSwitch) -> tuple:
    return (
        tuple(
            (p, s.rx_packets, s.rx_bytes, s.tx_packets, s.tx_bytes)
            for p, s in switch.port_stats.items()
        ),
        tuple(
            (tid, e.priority, e.match, e.cookie, e.packet_count, e.byte_count)
            for tid, table in enumerate(switch.tables)
            for e in table
        ),
    )


def _apply(switch: OpenFlowSwitch, snapshots: list, op: tuple):
    kind = op[0]
    if kind == "add_flow":
        mod = op[1]
        switch.add_flow(
            mod.table_id, mod.priority, mod.match, mod.instructions,
            cookie=mod.cookie,
        )
    elif kind == "add_batch":
        switch.add_flow_batch(op[1])
    elif kind == "add_run":
        switch.add_flow_batch(_Run(op[1]))
    elif kind == "remove_strict":
        mod = op[1]
        return switch.remove_flows(
            cookie=mod.cookie, table_id=mod.table_id,
            priority=mod.priority, match=mod.match,
        )
    elif kind == "remove_cookie":
        return switch.remove_flows(cookie=op[1])
    elif kind == "wipe_table":
        return switch.remove_flows(table_id=op[1])
    elif kind == "snapshot":
        snapshots.append(switch.snapshot())
    elif kind == "restore":
        return switch.restore(snapshots[op[1]])
    elif kind == "add_group":
        switch.add_group(op[1])
    elif kind == "remove_group":
        return switch.remove_group(op[1])
    elif kind == "table_add":  # behind the switch's back
        switch.tables[op[1].table_id].add(_entry(op[1]))
    elif kind == "table_remove":
        mod = op[1]
        return switch.tables[mod.table_id].remove(
            match=mod.match, priority=mod.priority
        )
    elif kind == "table_clear":
        return switch.tables[op[1]].clear()
    else:
        _kind, in_port, header, nbytes = op
        return switch.forward(in_port, header, nbytes)
    return None


def _play(ops: list[tuple], *, memo: bool, traced: bool) -> list:
    """Apply ``ops`` to a fresh switch; one transcript row per op."""
    switch = OpenFlowSwitch("s", len(PORTS), flow_table_capacity=100_000)
    snapshots: list = []
    transcript: list = []
    previous = metrics.set_registry(metrics.MetricsRegistry())
    tracer = trace.install_tracer() if traced else None
    try:
        for op in ops:
            if op[0] == "packet" and not memo:
                switch._decisions.clear()
            try:
                result = _apply(switch, snapshots, op)
            except SimulationError as exc:  # a rule naming a missing group
                result = str(exc)
            transcript.append(
                (result, _state(switch)) if op[0] == "packet" else result
            )
        if traced:
            transcript.append([
                e["attrs"] for e in tracer.events("switch.packet_in")
            ])
            transcript.append(list(
                metrics.registry().counter("sdt_switch_match_miss_total").series()
            ))
    finally:
        trace.uninstall_tracer()
        metrics.set_registry(previous)
    return transcript


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_memoised_forwarding_matches_the_pipeline_walk(traced):
    for case, rng in seeded_cases(NUM_CASES, ROOT_SEED, "forward-cache"):
        ops = _random_ops(rng)
        walked = _play(ops, memo=False, traced=traced)
        replayed = _play(ops, memo=True, traced=traced)
        for index, (want, have) in enumerate(zip(walked, replayed)):
            op = ops[index] if index < len(ops) else "telemetry"
            assert have == want, f"case {case}: after op {index} {op!r}"


def _group_rule_hits(switch: OpenFlowSwitch) -> int:
    return sum(
        e.packet_count
        for table in switch.tables
        for e in table
        for ins in e.instructions
        if isinstance(ins, ApplyActions)
        and any(isinstance(a, Group) for a in ins.actions)
    )


def test_sequences_reach_the_corners():
    """Memo hits, and every kind of outcome that must not be stored."""
    hits = misses = group_walks = dropped = rewrites = 0
    for _case, rng in seeded_cases(NUM_CASES, ROOT_SEED, "forward-cache"):
        ops = _random_ops(rng)
        switch = OpenFlowSwitch("s", len(PORTS), flow_table_capacity=100_000)
        snapshots: list = []
        for op in ops:
            if op[0] != "packet":
                try:
                    _apply(switch, snapshots, op)
                except SimulationError:
                    pass
                continue
            epoch_moved = switch._decisions_epoch != switch._epoch[0]
            key = (op[1], op[2])
            hits += not epoch_moved and key in switch._decisions
            via_group = _group_rule_hits(switch)
            decision = _apply(switch, snapshots, op)
            via_group = _group_rule_hits(switch) - via_group
            stored = key in switch._decisions
            assert not (via_group and stored)
            group_walks += bool(via_group)
            misses += not via_group and not stored
            dropped += decision.dropped and stored  # an explicit Drop
            rewrites += decision.vc is not None
    floor = NUM_CASES * 5
    assert min(hits, misses, group_walks, dropped, rewrites) >= floor, (
        hits, misses, group_walks, dropped, rewrites
    )
