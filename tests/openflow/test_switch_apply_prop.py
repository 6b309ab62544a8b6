"""Differential property test: one switch pass ≡ one message at a time.

``ControlTransaction.commit`` hands each touched switch's staged list to
one ``ControlChannel.send_batch`` call, and the switch applies it in one
pass (``OpenFlowSwitch.add_flow_batch``): a local free-entry count, each distinct
(table, instructions) pair checked once, each entry's (shape, key)
computed once. Twin switches are driven with the same seeded mixes —
FlowMods, rule-set runs (``FlowModRun``), modified rules as a
``ModifyRun``, strict, cookie, table, match-only and wildcard deletes,
modified pairs (a strict delete right before the install of the same
identity) and repeated identities — through that call on one twin and
through a per-message ``send`` loop, kept here as the oracle, on the
other.

The twins must agree on every entry (rows, serials, order), the
per-table cookie counts, ``num_entries`` and the channel stats; where
the TCAM runs out, on the message the ``CapacityError`` fires on and
the prefix applied before it. Every table's index must hold exactly its
store's members, each under its own key. Last, a two-switch commit with
``fail_after(k)`` armed on the second switch, for every ``k``, must
report the same ``RollbackReport`` (or the same modeled time) as the
oracle's.

Cases are seeded (reproduce with the printed case index); counts scale
with ``SDT_PROP_CASES`` for CI's stress job.
"""

from __future__ import annotations

import pytest

from repro.core.columnar import NO_VC, CompiledBlock
from repro.core.rules import RuleSet
from repro.openflow import (
    ApplyActions,
    ControlChannel,
    ControlPlane,
    ControlTransaction,
    FlowDelete,
    FlowEntry,
    FlowMod,
    FlowModRun,
    GotoTable,
    Match,
    OpenFlowSwitch,
    Output,
    WriteMetadata,
)
from repro.openflow.channel import flow_messages
from repro.openflow.switch import ModifyRun
from repro.util.errors import CapacityError, TransactionError
from tests.openflow.test_flowtable_store import _check_invariants
from tests.proptools import prop_cases, seeded_cases

ROOT_SEED = 20261020
NUM_CASES = prop_cases(80)

#: tiny universes: collisions are what exercise ordering and deletes
PORTS = 6
HOSTS = ("h0", "h1", "h2")
TAGS = (1, 2)
COOKIES = (1, 2)
TABLES = 2


def _pick(rng, options):
    return options[int(rng.integers(len(options)))]


def _block(rng, switch: str = "p0") -> CompiledBlock:
    """A random block with its routing rows on ``switch``; its
    (destination, incoming VC) pairs are distinct, as synthesis makes
    them."""
    pairs = list(dict.fromkeys(
        (_pick(rng, HOSTS), _pick(rng, (NO_VC, 0, 1)))
        for _ in range(int(rng.integers(0, 5)))
    ))
    n_cls = int(rng.integers(0, 3))
    return CompiledBlock(
        switch, _pick(rng, TAGS), _pick(rng, COOKIES),
        (switch,) * n_cls,
        tuple(int(rng.integers(1, PORTS + 1)) for _ in range(n_cls)),
        tuple(dst for dst, _vc in pairs),
        tuple(vc for _dst, vc in pairs),
        tuple(int(rng.integers(2)) for _ in pairs),
        tuple(int(rng.integers(1, PORTS + 1)) for _ in pairs),
    )


def _rerouted(rng, block: CompiledBlock) -> CompiledBlock:
    """``block`` with other out ports: the same identities, so its
    changed routing rows are modified rules."""
    return CompiledBlock(*block.columns[:8], tuple(
        int(rng.integers(1, PORTS + 1)) for _ in block.out_ports
    ))


def _run(rng, blocks=None):
    rules = RuleSet(cookie=COOKIES[0])
    for block in blocks or [_block(rng) for _ in range(int(rng.integers(1, 3)))]:
        rules.add_block(block)
    return rules.runs().get("p0")


def _mod(rng) -> FlowMod:
    cookie = _pick(rng, COOKIES)
    kind = rng.random()
    if kind < 0.3:
        return FlowMod(
            0, 100, Match(in_port=int(rng.integers(1, PORTS + 1))),
            (WriteMetadata(_pick(rng, TAGS)), GotoTable(1)), cookie,
        )
    if kind < 0.85:
        return FlowMod(
            1, _pick(rng, (50, 60)),
            Match(metadata=_pick(rng, TAGS), dst=_pick(rng, HOSTS)),
            (ApplyActions((Output(int(rng.integers(1, PORTS + 1))),)),),
            cookie,
        )
    # partial metadata mask: only the tables' fallback scan serves it
    return FlowMod(
        1, 55, Match(metadata=_pick(rng, TAGS), metadata_mask=0x3),
        (ApplyActions((Output(1),)),), cookie,
    )


def _strict(mod: FlowMod) -> FlowDelete:
    return FlowDelete(
        cookie=mod.cookie, table_id=mod.table_id, priority=mod.priority,
        match=mod.match,
    )


def _loose_delete(rng) -> FlowDelete:
    mod = _mod(rng)
    return _pick(rng, (
        FlowDelete(cookie=mod.cookie),
        FlowDelete(cookie=mod.cookie, table_id=mod.table_id),
        FlowDelete(table_id=mod.table_id),
        FlowDelete(table_id=mod.table_id, priority=mod.priority, match=mod.match),
        FlowDelete(priority=mod.priority, match=mod.match),
        FlowDelete(),
    ))


def _mix(rng, live: list[FlowMod], blocks: list[CompiledBlock]) -> list:
    """A random staged list for ``p0``. ``live`` are FlowMods already
    installed and ``blocks`` blocks whose rows are, so deletes, repeats
    and modified rows meet what the switch holds."""
    msgs: list = []
    staged: list[FlowMod] = []
    for _ in range(int(rng.integers(1, 12))):
        op = rng.random()
        if op < 0.25:
            mod = _pick(rng, live + staged) if (live or staged) and (
                rng.random() < 0.3
            ) else _mod(rng)  # sometimes an identity repeated
            msgs.append(mod)
            staged.append(mod)
        elif op < 0.35:
            run = _run(rng)
            if run is not None:
                msgs.append(run)
        elif op < 0.5 and blocks:
            # a block's routing rows modified in place, as a delta stages
            old = _pick(rng, blocks)
            new = _rerouted(rng, old)
            rows = [i for i in range(len(new.dsts)) if rng.random() < 0.7]
            if rows:
                msgs.append(new.modify_run(rows))
        elif op < 0.65 and (live or staged):
            # a modified pair: strict delete, then the install of the
            # same identity (same match object) with other actions
            old = _pick(rng, live + staged)
            mod = old._replace(instructions=(
                ApplyActions((Output(int(rng.integers(1, PORTS + 1))),)),
            )) if old.table_id == 1 else old
            msgs += [_strict(mod), mod]
            staged.append(mod)
        elif op < 0.85:
            pool = live + staged
            msgs.append(_strict(_pick(rng, pool) if pool else _mod(rng)))
        else:
            msgs.append(_loose_delete(rng))
    return msgs


def _twins(rng):
    """Two identical switches with random live state: single installs,
    a run left pending, and the blocks that run came from."""
    live = [_mod(rng) for _ in range(int(rng.integers(0, 8)))]
    blocks = [_block(rng) for _ in range(int(rng.integers(0, 3)))]
    run = _run(rng, blocks) if blocks else None
    held = len(live) + (len(run) if run is not None else 0)
    # sometimes tight, so an install overflows part-way
    capacity = held + int(rng.integers(0, 12)) if rng.random() < 0.5 else 10_000
    twins = []
    for _ in range(2):
        switch = OpenFlowSwitch(
            "p0", PORTS, num_tables=TABLES, flow_table_capacity=max(1, capacity)
        )
        for mod in live[:capacity]:
            switch.add_flow(*mod[:4], cookie=mod.cookie)
        if run is not None and len(run) <= switch.free_entries:
            switch.add_flow_batch(run)
        twins.append(switch)
    return twins, live, blocks


def _rows(switch: OpenFlowSwitch) -> list:
    return [
        [
            (e.priority, e.match, e.instructions, e.cookie, e.serial)
            for e in table.snapshot()
        ]
        for table in switch.tables
    ]


def _state(channel: ControlChannel) -> tuple:
    switch = channel.switch
    return (
        _rows(switch),
        [t.cookie_counts() for t in switch.tables],
        switch.num_entries,
        channel.stats.flow_mods,
        channel.stats.flow_deletes,
    )


def _one_by_one(channel: ControlChannel, msgs) -> None:
    """The oracle: every message through ``send``."""
    for msg in flow_messages(msgs):
        channel.send(msg)


def _outcome(fn):
    try:
        fn()
    except CapacityError as exc:
        return f"CapacityError: {exc}"
    return None


def test_one_pass_equals_a_per_message_loop():
    outcomes = {"overflow": 0, "modify": 0, "run": 0, "loose": 0}
    for idx, rng in seeded_cases(NUM_CASES, ROOT_SEED, "apply"):
        (fast, slow), live, blocks = _twins(rng)
        msgs = _mix(rng, live, blocks)
        a, b = ControlChannel(fast), ControlChannel(slow)
        got = _outcome(lambda: a.send_batch(flow_messages(msgs)))
        want = _outcome(lambda: _one_by_one(b, msgs))
        where = f"case {idx}"
        assert got == want, where
        assert _state(a) == _state(b), where
        assert a.stats.modeled_time == pytest.approx(b.stats.modeled_time), where
        for table in fast.tables:
            _check_invariants(table, where)
        outcomes["overflow"] += want is not None
        outcomes["modify"] += any(isinstance(m, ModifyRun) for m in msgs)
        outcomes["run"] += any(isinstance(m, FlowModRun) for m in msgs)
        outcomes["loose"] += any(
            isinstance(m, FlowDelete) and not m.strict for m in msgs
        )
    assert all(outcomes.values()), outcomes


def _plane(switches, *, one_by_one: bool) -> ControlPlane:
    plane = ControlPlane({s.dpid: s for s in switches})
    if one_by_one:
        for channel in plane.channels.values():
            channel.send_batch = lambda msgs, _c=channel: _one_by_one(_c, msgs)
    return plane


def test_a_failed_commit_rolls_back_what_the_pass_applied():
    """p0 takes its mix in one pass (or, on the oracle plane, one
    message at a time); p1's channel fails on its k-th message, for
    every k up to a successful commit: both planes report the same
    rollback (or the same modeled time) and end in the same state."""
    rolled_back = committed = 0
    for idx, rng in seeded_cases(max(1, NUM_CASES // 4), ROOT_SEED, "rollback"):
        (p0_fast, p0_slow), live, blocks = _twins(rng)
        p0_msgs = _mix(rng, live, blocks)
        p1_msgs = [_mod(rng) for _ in range(int(rng.integers(0, 4)))]
        k = 0
        while True:
            k += 1
            results = []
            for p0, one_by_one in ((p0_fast, False), (p0_slow, True)):
                p0 = _copy(p0)
                p1 = OpenFlowSwitch("p1", PORTS, num_tables=TABLES)
                plane = _plane([p0, p1], one_by_one=one_by_one)
                txn = ControlTransaction(plane, label="prop")
                txn.stage("p0", *p0_msgs)
                if p1_msgs:
                    txn.stage("p1", *p1_msgs)
                plane.channel("p1").fail_after(k)
                try:
                    # per message, the float sum of latencies groups
                    # differently: equal up to rounding
                    result = ("ok", round(txn.commit(), 12))
                except TransactionError as exc:
                    result = ("rolled back", exc.rollback)
                except CapacityError as exc:
                    result = ("refused", str(exc))
                plane.channel("p1")._fail_countdown = None
                results.append((result, _rows(p0), _rows(p1)))
            assert results[0] == results[1], f"case {idx}, fail_after({k})"
            if results[0][0][0] != "rolled back":
                committed += results[0][0][0] == "ok"
                break
            rolled_back += 1
    assert rolled_back and committed


def _copy(switch: OpenFlowSwitch) -> OpenFlowSwitch:
    """A fresh switch holding copies of ``switch``'s entries, in
    snapshot order."""
    twin = OpenFlowSwitch(
        switch.dpid, switch.num_ports, num_tables=len(switch.tables),
        flow_table_capacity=switch.flow_table_capacity,
    )
    for source, table in zip(switch.tables, twin.tables):
        table.add_batch(
            FlowEntry(e.priority, e.match, e.instructions, e.cookie)
            for e in source.snapshot()
        )
    return twin
