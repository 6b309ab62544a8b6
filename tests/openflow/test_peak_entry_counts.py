"""Transaction peak capacity: the strict-delta path against full simulation.

``ControlTransaction.peak_entry_counts`` prices a switch whose deletes
are all fully strict (table, priority, match and cookie given) from
``num_entries`` plus lookups of just the identities those deletes name,
and a switch whose deletes filter on table and cookie at most (the
swap's and the eviction's cookie deletes) from per-(table, cookie)
counts; any other mix falls back to simulating the switch's whole entry
multiset. Seeded random live tables and batches check that every path
gives the multiset simulation's exact peak, including the awkward
orders a delta batch stages: modified rules (strict delete right
before the install), deletes of rows staged earlier in the same batch,
repeated deletes of one identity, and duplicate live identities; and,
for the cookie path, rule-set runs staged whole on tables that still
hold earlier runs as pending rows — priced without building an entry
or a FlowMod.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core import SDTController, TopologyConfig, build_cluster_for
from repro.core.columnar import NO_VC, CompiledBlock
from repro.core.rules import RuleSet
from repro.hardware import H3C_S6861
from repro.openflow import (
    ApplyActions,
    ControlPlane,
    ControlTransaction,
    FlowDelete,
    FlowMod,
    Match,
    OpenFlowSwitch,
    Output,
)
from repro.openflow.channel import flow_messages
from repro.telemetry import metrics
from repro.topology import fat_tree
from repro.topology.diff import rebuild, removable_switch_links
from tests.proptools import prop_cases, seeded_cases

ROOT_SEED = 20261016
TABLES = 2


def _identity(rng) -> tuple:
    """A random (table, priority, match, cookie) from a small space, so
    batches collide with live entries and with each other."""
    kind = int(rng.integers(3))
    if kind == 0:
        match = Match(in_port=int(rng.integers(1, 6)))
    elif kind == 1:
        match = Match(metadata=int(rng.integers(1, 4)), dst=f"h{rng.integers(4)}")
    else:  # partial mask: served by the tables' fallback list
        match = Match(metadata=int(rng.integers(1, 4)), metadata_mask=0xFF)
    return (
        int(rng.integers(TABLES)),
        int(rng.choice([10, 20])),
        match,
        int(rng.integers(1, 3)),
    )


def _mod(identity: tuple, port: int) -> FlowMod:
    table_id, priority, match, cookie = identity
    return FlowMod(
        table_id, priority, match, (ApplyActions((Output(port),)),), cookie
    )


def _strict_delete(identity: tuple) -> FlowDelete:
    table_id, priority, match, cookie = identity
    return FlowDelete(
        cookie=cookie, table_id=table_id, priority=priority, match=match
    )


def _loose_delete(rng) -> FlowDelete:
    """A delete that does not name one identity."""
    table_id, priority, match, cookie = _identity(rng)
    return [
        FlowDelete(cookie=cookie),
        FlowDelete(cookie=cookie, table_id=table_id),
        FlowDelete(table_id=table_id, priority=priority, match=match),
        FlowDelete(cookie=cookie, priority=priority),
    ][int(rng.integers(4))]


def _reference_peak(switch: OpenFlowSwitch, msgs) -> int:
    """The full multiset simulation, written out independently."""
    live = Counter(switch.entry_keys())
    count = peak = sum(live.values())
    for msg in flow_messages(msgs):
        if isinstance(msg, FlowMod):
            live[(msg.table_id, msg.priority, msg.match, msg.cookie)] += 1
            count += 1
            peak = max(peak, count)
            continue
        for key in list(live):
            if all(
                want is None or want == have
                for want, have in zip(
                    (msg.table_id, msg.priority, msg.match, msg.cookie), key
                )
            ):
                count -= live.pop(key)
    return peak


def _random_case(rng):
    """A switch with random live entries and a random batch for it;
    returns (plane, messages, whether a loose delete is staged)."""
    switch = OpenFlowSwitch("p0", 8, flow_table_capacity=10_000, num_tables=TABLES)
    live = [_identity(rng) for _ in range(int(rng.integers(0, 25)))]
    if live:  # duplicate live identities: a strict delete takes every copy
        live += [live[int(rng.integers(len(live)))] for _ in range(int(rng.integers(4)))]
    for identity in live:
        switch.add_flow(*identity[:3], (), cookie=identity[3])
    msgs: list = []
    staged: list[tuple] = []
    for _ in range(int(rng.integers(1, 30))):
        op = int(rng.integers(5))
        if op == 0 or (op in (1, 3) and not live) or (op == 2 and not staged):
            identity = _identity(rng)  # fresh (or colliding) install
            msgs.append(_mod(identity, int(rng.integers(1, 8))))
            staged.append(identity)
        elif op == 1:  # modified: strict delete right before the install
            identity = live[int(rng.integers(len(live)))]
            msgs += [_strict_delete(identity), _mod(identity, int(rng.integers(1, 8)))]
            staged.append(identity)
        elif op == 2:  # delete a row staged earlier in this batch
            msgs.append(_strict_delete(staged[int(rng.integers(len(staged)))]))
        elif op == 3:  # retire a live rule
            msgs.append(_strict_delete(live[int(rng.integers(len(live)))]))
        else:  # a strict delete of whatever it names (maybe nothing)
            msgs.append(_strict_delete(_identity(rng)))
    loose = bool(rng.integers(4) == 0)
    if loose:
        msgs.insert(int(rng.integers(len(msgs) + 1)), _loose_delete(rng))
    return ControlPlane({"p0": switch}), msgs, loose


def test_peak_matches_full_multiset_simulation(monkeypatch):
    expansions = []
    entry_keys = OpenFlowSwitch.entry_keys

    def spy(self):
        expansions.append(self.dpid)
        return entry_keys(self)

    monkeypatch.setattr(OpenFlowSwitch, "entry_keys", spy)
    paths = Counter()
    for idx, rng in seeded_cases(prop_cases(200), ROOT_SEED, "peak"):
        plane, msgs, loose = _random_case(rng)
        switch = plane.channel("p0").switch
        expected = _reference_peak(switch, msgs)
        txn = ControlTransaction(plane)
        txn.stage("p0", *msgs)
        expansions.clear()
        assert txn.peak_entry_counts() == {"p0": expected}, f"case {idx}"
        deletes = [m for m in msgs if isinstance(m, FlowDelete)]
        by_cookie = loose and all(
            m.priority is None and m.match is None for m in deletes
        )
        # only a loose delete mixed with strict ones, or one that names
        # a priority or match, makes the switch's multiset expand
        assert bool(expansions) == (loose and not by_cookie), f"case {idx}"
        paths[
            "cookie" if by_cookie
            else "fallback" if loose
            else "strict" if deletes
            else "installs"
        ] += 1
    assert paths["strict"] and paths["fallback"], paths


def test_strict_delta_commit_never_expands_the_switch(monkeypatch):
    """An incremental 1-link edit stages installs and strict deletes
    only: its validation must not list any switch's entries."""
    base = fat_tree(4)
    edited = rebuild(base, drop_links={removable_switch_links(base)[0]})
    cluster = build_cluster_for([base], 2, H3C_S6861)
    controller = SDTController(cluster)
    controller.deploy(TopologyConfig.from_topology(base))

    def forbidden(self):
        raise AssertionError(f"{self.dpid}: entry_keys() during a delta commit")

    monkeypatch.setattr(OpenFlowSwitch, "entry_keys", forbidden)
    mode = metrics.registry().counter("sdt_controller_reconfigure_mode_total")
    before = mode.value(mode="incremental")
    controller.reconfigure(TopologyConfig.from_topology(edited))
    assert mode.value(mode="incremental") == before + 1


@pytest.mark.parametrize("live_copies", [0, 1, 2])
def test_modified_rule_then_redelete(live_copies):
    """Delete K, install K, delete K again: the second delete takes only
    the staged copy, however many live copies the first one took."""
    switch = OpenFlowSwitch("p0", 8, flow_table_capacity=100, num_tables=TABLES)
    identity = (1, 10, Match(metadata=1, dst="h0"), 1)
    for _ in range(live_copies):
        switch.add_flow(*identity[:3], (), cookie=identity[3])
    switch.add_flow(0, 10, Match(in_port=1), (), cookie=1)
    msgs = [
        _strict_delete(identity), _mod(identity, 2), _strict_delete(identity),
        _mod(identity, 3), _mod((0, 10, Match(in_port=2), 1), 1),
    ]
    txn = ControlTransaction(ControlPlane({"p0": switch}))
    txn.stage("p0", *msgs)
    assert txn.peak_entry_counts() == {"p0": _reference_peak(switch, msgs)}
    assert txn.peak_entry_counts() == {"p0": max(live_copies + 1, 3)}


def _random_rules(rng, cookies=(1, 2)) -> RuleSet:
    """A rule set of a few random blocks, some landing rows on ``p0``
    (classification, wildcard- and exact-VC routing), cookies mixed."""
    rules = RuleSet(cookie=cookies[0])
    for _ in range(int(rng.integers(1, 5))):
        n_cls, n_route = int(rng.integers(0, 4)), int(rng.integers(0, 5))
        rules.add_block(CompiledBlock(
            phys_switch=("p0", "p1")[int(rng.integers(2))],
            metadata_id=int(rng.integers(1, 4)),
            cookie=int(rng.choice(cookies)),
            classify_switches=tuple(
                ("p0", "p1")[int(rng.integers(2))] for _ in range(n_cls)
            ),
            classify_ports=tuple(int(rng.integers(1, 6)) for _ in range(n_cls)),
            dsts=tuple(f"h{rng.integers(4)}" for _ in range(n_route)),
            in_vcs=tuple(int(rng.choice([NO_VC, 0, 1])) for _ in range(n_route)),
            out_vcs=tuple(int(rng.integers(2)) for _ in range(n_route)),
            out_ports=tuple(int(rng.integers(1, 8)) for _ in range(n_route)),
        ))
    return rules


def _cookie_delete(rng) -> FlowDelete:
    return [
        FlowDelete(cookie=int(rng.integers(1, 3))),
        FlowDelete(cookie=int(rng.integers(1, 3)), table_id=int(rng.integers(TABLES))),
        FlowDelete(table_id=int(rng.integers(TABLES))),
        FlowDelete(),
    ][int(rng.choice([0, 0, 1, 1, 2, 3]))]


def test_cookie_deletes_are_priced_from_counts(monkeypatch):
    """Runs, loose adds and deletes by table and cookie, on tables that
    hold earlier runs pending: the peak is the full simulation's, and
    pricing it lists no entry, builds no pending row and materializes
    no FlowMod."""
    materialized = metrics.registry().counter("sdt_rules_materialized_total")
    entry_keys = OpenFlowSwitch.entry_keys
    expansions = []

    def spy(self):
        expansions.append(self.dpid)
        return entry_keys(self)

    monkeypatch.setattr(OpenFlowSwitch, "entry_keys", spy)
    runs_staged = priced_pending = 0
    for idx, rng in seeded_cases(prop_cases(200), ROOT_SEED, "cookie"):
        switch = OpenFlowSwitch(
            "p0", 8, flow_table_capacity=10_000, num_tables=TABLES
        )
        for _ in range(int(rng.integers(0, 6))):  # live, built entries
            identity = _identity(rng)
            switch.add_flow(*identity[:3], (), cookie=identity[3])
        for _ in range(int(rng.integers(0, 3))):  # live, pending rows
            run = _random_rules(rng).runs().get("p0")
            if run is not None:
                switch.add_flow_batch(run)
        msgs: list = []
        for _ in range(int(rng.integers(1, 12))):
            op = int(rng.integers(3))
            if op == 0:
                run = _random_rules(rng).runs().get("p0")
                if run is not None:
                    msgs.append(run)
                    runs_staged += 1
            elif op == 1:
                msgs.append(_mod(_identity(rng), int(rng.integers(1, 8))))
            else:
                msgs.append(_cookie_delete(rng))
        if not any(isinstance(m, FlowDelete) for m in msgs):
            msgs.append(_cookie_delete(rng))
        pending = [len(t._pending) for t in switch.tables]
        priced_pending += any(pending)
        txn = ControlTransaction(ControlPlane({"p0": switch}))
        txn.stage("p0", *msgs)
        expansions.clear()
        before = materialized.value()
        peak = txn.peak_entry_counts()["p0"]
        assert not expansions, f"case {idx}"
        assert materialized.value() == before, f"case {idx}"
        assert [len(t._pending) for t in switch.tables] == pending, idx
        assert peak == ControlTransaction._simulated_peak(switch, msgs), idx
        assert peak == _reference_peak(switch, msgs), f"case {idx}"
    assert runs_staged and priced_pending
