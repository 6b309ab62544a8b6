"""Differential property test: pending rows ≡ entries built on arrival.

A bulk install (:class:`~repro.openflow.switch.FlowModRun`) leaves its
rows *pending* in the flow tables — row counts, cookies, producers and
reserved serials — until a reader needs the entries. Twin switches are
driven through the same seeded interleavings: on the *lazy* twin every
rule-set run goes through ``add_flow_batch`` whole; on the *eager* twin
the same rows arrive one ``add_flow`` per FlowMod. Between runs come
loose adds, strict, cookie, table and match-only deletes, switch wipes,
snapshots and restores of earlier snapshots, packets and direct lookups.

The twins must agree on every reader: snapshot rows ``(priority, match,
instructions, cookie, serial)`` and counters, lookup winners per table,
``count_strict``, ``cookie_counts``, ``entry_keys``,
``installed_rules``, every delete's count, and the forwarding memo's
behaviour — whether an operation moved the mutation epoch, and how
many outcomes the memo holds. Operations that need no entries
(``len``, ``cookie_counts``, cookie deletes, wipes) must leave the
lazy twin's pending rows unbuilt; full reads happen only now and then,
so runs pile up and deletes meet them pending.

Cases are seeded (reproduce with the printed case index); counts scale
with ``SDT_PROP_CASES`` for CI's stress job.
"""

from __future__ import annotations

import pytest

from repro.core import SDTController, TopologyConfig, build_cluster_for
from repro.core.columnar import NO_VC, CompiledBlock
from repro.core.rules import RuleSet
from repro.hardware import EVAL_256x10G
from repro.openflow import (
    ApplyActions,
    FlowMod,
    GotoTable,
    Match,
    OpenFlowSwitch,
    Output,
    PacketHeader,
    WriteMetadata,
)
from repro.telemetry import metrics
from repro.util.errors import CapacityError
from tests.openflow.test_flowtable_store import _check_invariants
from tests.proptools import prop_cases, seeded_cases

ROOT_SEED = 20261017
NUM_CASES = prop_cases(60)

#: tiny universes: collisions are what exercise ordering and deletes
PORTS = 6
HOSTS = ("h0", "h1", "h2")
TAGS = (1, 2)
COOKIES = (1, 2, 3)
TABLES = 2


def _pick(rng, options):
    return options[int(rng.integers(len(options)))]


def _random_rules(rng) -> RuleSet:
    """A few random blocks; each lands classification rows and maybe its
    routing rows (wildcard- and exact-VC) on ``p0``, cookies mixed."""
    rules = RuleSet(cookie=COOKIES[0])
    for _ in range(int(rng.integers(1, 5))):
        n_cls, n_route = int(rng.integers(0, 4)), int(rng.integers(0, 5))
        rules.add_block(CompiledBlock(
            phys_switch=_pick(rng, ("p0", "p0", "p1")),
            metadata_id=_pick(rng, TAGS),
            cookie=_pick(rng, COOKIES),
            classify_switches=tuple(
                _pick(rng, ("p0", "p1")) for _ in range(n_cls)
            ),
            classify_ports=tuple(
                int(rng.integers(1, PORTS + 1)) for _ in range(n_cls)
            ),
            dsts=tuple(_pick(rng, HOSTS) for _ in range(n_route)),
            in_vcs=tuple(_pick(rng, (NO_VC, 0, 1)) for _ in range(n_route)),
            out_vcs=tuple(int(rng.integers(2)) for _ in range(n_route)),
            out_ports=tuple(
                int(rng.integers(1, PORTS + 1)) for _ in range(n_route)
            ),
        ))
    return rules


def _loose_mod(rng) -> FlowMod:
    cookie = _pick(rng, COOKIES)
    kind = rng.random()
    if kind < 0.35:
        return FlowMod(
            0, 100, Match(in_port=int(rng.integers(1, PORTS + 1))),
            (WriteMetadata(_pick(rng, TAGS)), GotoTable(1)), cookie,
        )
    if kind < 0.8:
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


def _identity(rng, eager: OpenFlowSwitch) -> tuple:
    """A (table, priority, match, cookie) to delete or count: usually a
    live rule's, sometimes one nothing carries."""
    rules = eager.installed_rules()
    if rules and rng.random() < 0.8:
        tid, priority, match, _instrs, cookie = _pick(rng, rules)
        return tid, priority, match, cookie
    mod = _loose_mod(rng)
    return mod.table_id, mod.priority, mod.match, mod.cookie


def _packet(rng) -> tuple[int, PacketHeader]:
    return int(rng.integers(1, PORTS + 1)), PacketHeader(
        src=_pick(rng, HOSTS), dst=_pick(rng, HOSTS), vc=int(rng.integers(2))
    )


def _rows(switch: OpenFlowSwitch) -> list:
    return [
        [
            (e.priority, e.match, e.instructions, e.cookie, e.serial,
             e.packet_count, e.byte_count)
            for e in table.snapshot()
        ]
        for table in switch.tables
    ]


def _counts(switch: OpenFlowSwitch) -> tuple:
    """The readers that need no entries."""
    return (
        switch.num_entries,
        [len(t) for t in switch.tables],
        [t.cookie_counts() for t in switch.tables],
        switch.occupancy_by_cookie(),
    )


def _assert_agree(lazy, eager, rng, where) -> None:
    """Every reader, the entry-building ones included."""
    assert _counts(lazy) == _counts(eager), where
    assert _rows(lazy) == _rows(eager), where
    assert lazy.entry_keys() == eager.entry_keys(), where
    assert lazy.installed_rules() == eager.installed_rules(), where
    for _ in range(8):
        in_port, header = _packet(rng)
        metadata = _pick(rng, (0, *TAGS))
        for a, b in zip(lazy.tables, eager.tables):
            won, ref = a.lookup(in_port, metadata, header), b.lookup(
                in_port, metadata, header
            )
            assert (won is None) == (ref is None), where
            if won is not None:
                assert (won, won.serial) == (ref, ref.serial), where
        tid, priority, match, cookie = _identity(rng, eager)
        for c in (cookie, None):
            assert lazy.tables[tid].count_strict(
                match=match, priority=priority, cookie=c
            ) == eager.tables[tid].count_strict(
                match=match, priority=priority, cookie=c
            ), where
    for table in lazy.tables:
        _check_invariants(table, where)


def _outcome(fn):
    """``fn()``, or the capacity error it raised: part of the outcome."""
    try:
        return fn()
    except CapacityError as exc:
        return f"CapacityError: {exc}"


def _per_message(switch, mods) -> None:
    for m in mods:
        switch.add_flow(
            m.table_id, m.priority, m.match, m.instructions, cookie=m.cookie
        )


def _step(rng, twins, snapshots) -> tuple[str, list]:
    """One random operation on both twins; returns its kind and each
    twin's outcome."""
    lazy, eager = twins
    op = rng.random()
    if op < 0.3:
        run = _random_rules(rng).runs().get("p0")
        if run is None:
            return "empty", [None, None]
        return "run", [
            _outcome(lambda: lazy.add_flow_batch(run)),
            _outcome(lambda: _per_message(eager, run)),
        ]
    if op < 0.42:
        mods = [_loose_mod(rng) for _ in range(int(rng.integers(1, 4)))]
        if rng.random() < 0.5:
            return "add_flow", [
                _outcome(lambda sw=sw: _per_message(sw, mods)) for sw in twins
            ]
        return "add_batch", [
            _outcome(lambda sw=sw: sw.add_flow_batch(mods)) for sw in twins
        ]
    if op < 0.55:
        tid, priority, match, cookie = _identity(rng, eager)
        return "strict", [
            sw.remove_flows(
                cookie=cookie, table_id=tid, priority=priority, match=match
            )
            for sw in twins
        ]
    if op < 0.7:
        cookie = _pick(rng, COOKIES)
        tid = _pick(rng, (None, 0, 1))
        return "cookie", [
            sw.remove_flows(cookie=cookie, table_id=tid) for sw in twins
        ]
    if op < 0.75:
        flt = _pick(rng, (
            {"table_id": int(rng.integers(TABLES))},
            {},
            {"priority": _pick(rng, (50, 60, 100))},
            {"match": _identity(rng, eager)[2]},
        ))
        return "wildcard", [sw.remove_flows(**flt) for sw in twins]
    if op < 0.82:
        snapshots.append(tuple(sw.snapshot() for sw in twins))
        return "snapshot", [None, None]
    if op < 0.87 and snapshots:
        pair = snapshots[int(rng.integers(len(snapshots)))]
        return "restore", [sw.restore(s) for sw, s in zip(twins, pair)]
    packets = [_packet(rng) for _ in range(int(rng.integers(1, 6)))]
    return "forward", [
        [sw.forward(p, h, 100) for p, h in packets] + [len(sw._decisions)]
        for sw in twins
    ]


def _built(switch) -> int:
    return sum(len(t._store) for t in switch.tables)


def _pending(switch) -> int:
    return sum(t._pending_rows for t in switch.tables)


def test_lazy_install_reads_like_per_message_install():
    seen = {"dropped": 0, "read": 0, "overflow": 0, "restored": 0}
    for case, rng in seeded_cases(NUM_CASES, ROOT_SEED, "twins"):
        capacity = int(rng.choice([10_000, 10_000, 40]))
        twins = tuple(
            OpenFlowSwitch(
                "p0", PORTS, num_tables=TABLES, flow_table_capacity=capacity
            )
            for _ in range(2)
        )
        lazy, eager = twins
        snapshots: list = []
        for step in range(40):
            where = f"case {case} step {step}"
            built, pending = _built(lazy), _pending(lazy)
            epochs = [sw._epoch[0] for sw in twins]
            kind, (got, ref) = _step(rng, twins, snapshots)
            assert got == ref, (where, kind)
            # the memo is dropped by the same operations on both twins
            moved = [sw._epoch[0] != e for sw, e in zip(twins, epochs)]
            assert moved[0] == moved[1], (where, kind)
            assert _counts(lazy) == _counts(eager), (where, kind)
            if kind in ("cookie", "empty") or (kind == "run" and got is None):
                # no reader needed entries: nothing was built
                assert _built(lazy) <= built, (where, kind)
                seen["dropped"] += kind == "cookie" and _pending(lazy) < pending
            seen["overflow"] += kind == "run" and got is not None
            seen["restored"] += kind == "restore" and pending > 0
            if rng.random() < 0.12:
                seen["read"] += _pending(lazy) > 0
                _assert_agree(lazy, eager, rng, where)
        _assert_agree(lazy, eager, rng, f"case {case} end")
    assert all(seen.values()), seen


def test_cookie_delete_drops_pending_rows_unbuilt():
    """A cookie delete and a wipe act on pending parts without building
    them, whichever blocks of a run carry the cookie."""
    rules = RuleSet(cookie=1)
    for tag, cookie in ((1, 1), (2, 2), (3, 1)):
        rules.add_block(CompiledBlock(
            "p0", tag, cookie, ("p0", "p0"), (tag, tag + 3),
            ("h0", "h1"), (NO_VC, 1), (0, 1), (1, 2),
        ))
    switch = OpenFlowSwitch("p0", PORTS, num_tables=TABLES)
    switch.add_flow_batch(rules.runs()["p0"])
    assert switch.occupancy_by_cookie() == {1: 8, 2: 4}
    assert switch.remove_flows(cookie=1, table_id=1) == 4
    assert switch.occupancy_by_cookie() == {1: 4, 2: 4}
    assert switch.remove_flows(table_id=0) == 6
    assert switch.occupancy_by_cookie() == {2: 2}
    assert all(not t._store for t in switch.tables)
    # what is left builds with the serials it was installed under
    assert [[e.serial for e in t] for t in switch.tables] == [[], [3, 2]]


@pytest.mark.parametrize("lossless", [False, True])
def test_cold_deploy_builds_no_entry(lossless):
    """A cold deploy leaves every table's rows pending: nothing in the
    store, every row counted, no FlowMod materialized. The first lookup
    builds them."""
    config = TopologyConfig(
        "fat-tree", {"k": 4},
        **({} if lossless else {"routing": "shortest-path", "lossless": False}),
    )
    cluster = build_cluster_for([config.build()], 2, EVAL_256x10G)
    materialized = metrics.registry().counter("sdt_rules_materialized_total")
    before = materialized.value()
    deployment = SDTController(cluster).deploy(config)
    assert materialized.value() == before
    for name, switch in cluster.switches.items():
        rows = deployment.rules.count(name)
        assert switch.num_entries == rows
        for table in switch.tables:
            assert len(table._store) == 0
        assert sum(len(t) for t in switch.tables) == rows
    switch = cluster.switches[cluster.switch_names[0]]
    switch.forward(1, PacketHeader(src="x", dst="y"))
    assert len(switch.tables[0]._store) == len(switch.tables[0])
