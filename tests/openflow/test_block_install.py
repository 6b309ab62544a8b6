"""Differential suite: a rule set staged whole installs like its FlowMods.

``ControlTransaction.stage_rules`` takes a :class:`RuleSet` and carries
it to the switches as one :class:`FlowModRun` per switch — flow entries
built straight from the compiled columns, no FlowMod in between. The
reference is the same transaction staged the classic way, from
``rules.mods``. On twin clusters the two must be indistinguishable:

* **what lands** — per switch the same ``installed_rules()`` *sequence*
  (entry order and arrival serials decide equal-priority lookups), the
  same ``entry_keys()``, ``ChannelStats``, returned commit time and
  lookup winners; with a journal installed, a byte-identical intent
  record that recovery rebuilds the same tables from;
* **what validation sees** — ``peak_entry_counts()`` for install-only,
  make-before-break and break-before-make stagings;
* **how it fails** — an injected channel fault at any message (block
  boundaries and the barrier included) raises the same
  ``TransactionError`` with the same ``RollbackReport`` and leaves the
  pre-transaction tables; an install that overflows the TCAM part-way
  leaves the same installed prefix; a rule the switch refuses is
  refused with nothing applied.

Cases are seeded (reproduce with the printed case index) over
fat-tree, torus (exact-VC rows), dragonfly, chain and a zoo sample on
1–3 physical switches; counts scale with ``SDT_PROP_CASES`` for CI's
stress job. A rule set holds only compiled blocks; rules outside that
form (ACL, ECMP, masked-metadata or keyless rows) are staged as
``{switch: [FlowMod]}`` mappings — the reference path here — and are
covered by the flow-table suites.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro.core import SDTController, TopologyConfig, build_cluster_for
from repro.core.columnar import (
    CLASSIFY_TABLE,
    PRIORITY_CLASSIFY,
    PRIORITY_ROUTE_EXACT,
    PRIORITY_ROUTE_WILD,
    ROUTE_TABLE,
    CompiledBlock,
)
from repro.core.rules import RuleSet, synthesize_rules
from repro.hardware import EVAL_256x10G
from repro.openflow import (
    ApplyActions,
    ControlTransaction,
    FlowMod,
    GotoTable,
    Match,
    Output,
    PacketHeader,
    SetQueue,
    SetVC,
    WriteMetadata,
)
from repro.recovery import (
    CommitJournal,
    apply_recovery,
    install_journal,
    load_recovery,
    uninstall_journal,
)
from repro.topology.zoo import zoo_catalog
from repro.util.errors import CapacityError, SimulationError, TransactionError
from tests.openflow.test_flowtable_store import _check_invariants
from tests.proptools import prop_cases, seeded_cases

ROOT_SEED = 20261002
NUM_CASES = prop_cases(30)

CONFIGS = [
    TopologyConfig("fat-tree", {"k": 4}),
    TopologyConfig("torus2d", {"x": 3, "y": 3}),  # exact-VC routing rows
    TopologyConfig("dragonfly", {"a": 2, "g": 3, "h": 1}),
    TopologyConfig("chain", {"num_switches": 5}),
    TopologyConfig(
        "zoo",
        {"name": zoo_catalog()[20].name, "hosts_per_switch": 1},
        routing="shortest-path",
        lossless=False,
    ),
]


# --- rigs --------------------------------------------------------------------

@lru_cache(maxsize=None)
def _prepared(config_index: int, num_switches: int):
    """``(topology, preparation)`` of one config on one rig size; pure,
    so every case of that shape shares it (rule sets are never mutated
    here)."""
    config = CONFIGS[config_index]
    topology = config.build()
    cluster = build_cluster_for([topology], num_switches, EVAL_256x10G)
    return topology, SDTController(cluster).prepare(config)


def _twins(topology, num_switches: int):
    return tuple(
        build_cluster_for([topology], num_switches, EVAL_256x10G)
        for _ in range(2)
    )


def _case(case: int, rng):
    """One seeded case: topology, rig size, rule set, twin clusters."""
    config_index = case % len(CONFIGS)
    num_switches = int(rng.integers(1, 4))
    topology, prep = _prepared(config_index, num_switches)
    return topology, prep, prep.rules, _twins(topology, num_switches)


def _commit(cluster, rules, *, as_mods: bool) -> float:
    """Commit ``rules`` alone, staged whole or from its FlowMods."""
    txn = ControlTransaction(cluster.control, label="install")
    txn.stage_rules(rules.mods if as_mods else rules)
    return txn.commit()


def _install_base(twins, prep, cookie: int = 9) -> RuleSet:
    """An earlier generation on both twins (classic staging on both),
    so failures have pre-transaction state to return to."""
    base = synthesize_rules(prep.projection, prep.routes, cookie=cookie)
    for cluster in twins:
        _commit(cluster, base, as_mods=True)
    return base


# --- probes -------------------------------------------------------------------

def _serials(cluster) -> dict[str, list[list[int]]]:
    return {
        name: [[e.serial for e in table] for table in sw.tables]
        for name, sw in cluster.switches.items()
    }


def _stats(cluster) -> dict:
    return {
        name: channel.stats
        for name, channel in cluster.control.channels.items()
    }


def _state(cluster) -> dict:
    return {
        name: sw.installed_rules() for name, sw in cluster.switches.items()
    }


def _assert_same_tables(block, mods, case) -> None:
    """The block-native twin and the per-message twin hold the same
    tables: content, order, serials, index filing, channel stats."""
    for name, sw in block.switches.items():
        ref = mods.switches[name]
        assert sw.installed_rules() == ref.installed_rules(), (case, name)
        assert sw.entry_keys() == ref.entry_keys(), (case, name)
        for table in sw.tables:
            # every entry filed where lookups and strict deletes look
            _check_invariants(table, case)
    assert _serials(block) == _serials(mods), case
    assert _stats(block) == _stats(mods), case


def _assert_same_lookups(block, mods, prep, rng, case) -> None:
    projection = prep.projection
    addresses = sorted(set(projection.host_map.values())) + ["nobody"]
    tags = [s.metadata_id for s in projection.subswitches.values()] + [0]
    for name, sw in block.switches.items():
        ref = mods.switches[name]
        ports = [
            m.in_port
            for _t, _p, m, _i, _c in sw.installed_rules()
            if m.in_port is not None
        ] + [sw.num_ports]
        for _ in range(40):
            in_port = ports[int(rng.integers(len(ports)))]
            metadata = tags[int(rng.integers(len(tags)))]
            header = PacketHeader(
                src=addresses[int(rng.integers(len(addresses)))],
                dst=addresses[int(rng.integers(len(addresses)))],
                vc=int(rng.integers(0, 5)),
            )
            for table, ref_table in zip(sw.tables, ref.tables):
                won = table.lookup(in_port, metadata, header)
                ref_won = ref_table.lookup(in_port, metadata, header)
                assert (won is None) == (ref_won is None), (case, name)
                if won is not None:
                    assert won == ref_won, (case, name)  # rule content
                    assert won.serial == ref_won.serial, (case, name)


# --- what lands ---------------------------------------------------------------

def test_staged_rule_set_installs_like_its_flow_mods():
    seen_exact_vc = False
    for case, rng in seeded_cases(NUM_CASES, ROOT_SEED, "install"):
        _topology, prep, rules, (block, mods) = _case(case, rng)
        assert _commit(block, rules, as_mods=False) == _commit(
            mods, rules, as_mods=True
        ), case
        _assert_same_tables(block, mods, case)
        _assert_same_lookups(block, mods, prep, rng, case)
        installed = sum(sw.num_entries for sw in block.switches.values())
        assert installed == rules.count(), case
        seen_exact_vc |= any(
            m.match.vc is not None for ms in rules.mods.values() for m in ms
        )
    assert seen_exact_vc  # the sample reached exact-VC routing rows


def test_second_generation_lands_behind_the_first():
    """Rows arriving on non-empty tables take the same place behind
    equal-priority incumbents as sequential installs do."""
    for case, rng in seeded_cases(NUM_CASES, ROOT_SEED, "behind"):
        _topology, prep, rules, (block, mods) = _case(case, rng)
        _install_base((block, mods), prep)
        assert _commit(block, rules, as_mods=False) == _commit(
            mods, rules, as_mods=True
        ), case
        _assert_same_tables(block, mods, case)
        _assert_same_lookups(block, mods, prep, rng, case)


def test_block_pairs_are_its_columns_as_flow_mods():
    """``pairs()`` reads its FlowMods off the install rows; pinned here
    against FlowMods built from the columns with the public
    constructors, per switch in first-seen order."""
    block = CompiledBlock(
        phys_switch="phys0",
        metadata_id=7,
        cookie=3,
        classify_switches=("phys1", "phys0", "phys1"),
        classify_ports=(4, 5, 6),
        dsts=("a", "b"),
        in_vcs=(-1, 1),
        out_vcs=(0, 2),
        out_ports=(1, 2),
    )
    tag = (WriteMetadata(7), GotoTable(ROUTE_TABLE))

    def classify(port):
        return FlowMod(CLASSIFY_TABLE, PRIORITY_CLASSIFY, Match(in_port=port), tag, 3)

    assert block.pairs() == (
        ("phys1", classify(4)),
        ("phys1", classify(6)),
        ("phys0", classify(5)),
        ("phys0", FlowMod(
            ROUTE_TABLE, PRIORITY_ROUTE_WILD, Match(metadata=7, dst="a"),
            (ApplyActions((SetQueue(0), Output(1))),), 3,
        )),
        ("phys0", FlowMod(
            ROUTE_TABLE, PRIORITY_ROUTE_EXACT, Match(metadata=7, dst="b", vc=1),
            (ApplyActions((SetVC(2), SetQueue(2), Output(2))),), 3,
        )),
    )
    assert block.pairs() is block.pairs()  # built once


def test_block_whose_rows_land_on_several_switches():
    """A block's classification rows follow their ports' switches (its
    routing rows stay on its own): each switch gets its share, in
    block order, interleaved with the other blocks' rows."""
    topology, _prep = _prepared(3, 2)
    rules = RuleSet(cookie=3)
    for tag, home in ((1, "phys0"), (2, "phys1"), (3, "phys0")):
        rules.add_block(CompiledBlock(
            phys_switch=home,
            metadata_id=tag,
            cookie=3,
            classify_switches=("phys0", "phys1", "phys0", "phys1"),
            classify_ports=(tag, tag, 10 + tag, 10 + tag),
            dsts=("a", "a", "b"),
            in_vcs=(-1, 1, -1),
            out_vcs=(0, 2, 1),
            out_ports=(1, 2, 1),
        ))
    assert rules.switches() == ("phys0", "phys1")
    assert rules.per_switch_counts() == {"phys0": 12, "phys1": 9}
    block, mods = _twins(topology, 2)
    assert _commit(block, rules, as_mods=False) == _commit(
        mods, rules, as_mods=True
    )
    _assert_same_tables(block, mods, "spread")
    assert block.switches["phys1"].num_entries == 9


def test_journal_intent_is_byte_identical_and_recovers(tmp_path):
    for case, rng in seeded_cases(
        min(NUM_CASES, 2 * len(CONFIGS)), ROOT_SEED, "journal"
    ):
        topology, _prep, rules, twins = _case(case, rng)
        lines = []
        for cluster, as_mods in zip(twins, (False, True)):
            state_dir = tmp_path / f"{case}-{'mods' if as_mods else 'block'}"
            journal = install_journal(CommitJournal(state_dir / "journal.jsonl"))
            try:
                _commit(cluster, rules, as_mods=as_mods)
            finally:
                uninstall_journal()
            lines.append(journal.path.read_bytes())
            assert [r["type"] for r in journal.read()] == ["intent", "commit"]
            recovered = build_cluster_for(
                [topology], len(cluster.switches), EVAL_256x10G
            )
            apply_recovery(load_recovery(state_dir), recovered)
            assert _state(recovered) == _state(cluster), case
        assert lines[0] == lines[1], case


# --- what validation sees -----------------------------------------------------

def test_peak_entry_counts_agree_across_disciplines():
    for case, rng in seeded_cases(NUM_CASES, ROOT_SEED, "peaks"):
        _topology, prep, rules, twins = _case(case, rng)
        base = _install_base(twins, prep)
        for discipline in ("install-only", "make-first", "break-first"):
            peaks = []
            for cluster, as_mods in zip(twins, (False, True)):
                txn = ControlTransaction(cluster.control, label=discipline)
                if discipline == "break-first":
                    txn.stage_delete(base.switches(), base.cookie)
                txn.stage_rules(rules.mods if as_mods else rules)
                if discipline == "make-first":
                    txn.stage_delete(base.switches(), base.cookie)
                assert txn.touched_switches == tuple(base.switches())
                peaks.append(txn.peak_entry_counts())
                txn.validate()
            assert peaks[0] == peaks[1], (case, discipline)
            assert list(peaks[0]) == list(peaks[1]), (case, discipline)


# --- how it fails --------------------------------------------------------------

def _boundaries(rules: RuleSet, switch: str) -> list[int]:
    """Message offsets on ``switch`` where one block's rows end."""
    offsets, at = [], 0
    for block in rules.blocks:
        at += block.per_switch_counts().get(switch, 0)
        offsets.append(at)
    return offsets


def test_injected_fault_rolls_back_identically():
    for case, rng in seeded_cases(NUM_CASES, ROOT_SEED, "fault"):
        _topology, prep, rules, twins = _case(case, rng)
        _install_base(twins, prep)
        before = _state(twins[0])
        assert before == _state(twins[1])
        names = list(rules.switches())
        victim = names[int(rng.integers(len(names)))]
        rows = rules.count(victim)
        edges = {1, rows, rows + 1}  # first row, last row, the barrier
        for offset in _boundaries(rules, victim):
            edges |= {offset, offset + 1}
        edges |= {int(rng.integers(1, rows + 2)) for _ in range(2)}
        for nth in sorted(e for e in edges if 1 <= e <= rows + 1)[:8]:
            errors = []
            for cluster, as_mods in zip(twins, (False, True)):
                cluster.control.channel(victim).fail_after(nth)
                with pytest.raises(TransactionError) as caught:
                    _commit(cluster, rules, as_mods=as_mods)
                errors.append(caught.value)
                assert _state(cluster) == before, (case, nth)
            assert str(errors[0]) == str(errors[1]), (case, nth)
            assert errors[0].rollback == errors[1].rollback, (case, nth)
            assert errors[0].rollback.entries_reverted > 0 or nth == 1
            assert _stats(twins[0]) == _stats(twins[1]), (case, nth)
            assert _serials(twins[0]) == _serials(twins[1]), (case, nth)


def test_overflowing_run_installs_the_sequential_prefix():
    for case, rng in seeded_cases(NUM_CASES, ROOT_SEED, "overflow"):
        _topology, _prep, rules, twins = _case(case, rng)
        names = list(rules.switches())
        victim = names[int(rng.integers(len(names)))]
        rows = rules.count(victim)
        room = int(rng.integers(0, rows))  # rows > free entries
        errors = []
        for cluster, as_mods in zip(twins, (False, True)):
            cluster.switches[victim].flow_table_capacity = room
            # the transaction prices the overflow before touching
            # hardware, either way
            with pytest.raises(CapacityError) as priced:
                _commit(cluster, rules, as_mods=as_mods)
            assert cluster.switches[victim].num_entries == 0
            # the channel meets it part-way
            channel = cluster.control.channel(victim)
            batch = rules.mods[victim] if as_mods else rules.runs()[victim]
            with pytest.raises(CapacityError) as hit:
                channel.send_batch(batch)
            errors.append((str(priced.value), str(hit.value)))
            assert cluster.switches[victim].num_entries == room, case
            assert channel.stats.flow_mods == room + 1, case
        assert errors[0] == errors[1], case
        _assert_same_tables(*twins, case)


def _bad_port_rules(prep, bad_port: int) -> RuleSet:
    """``prep``'s rules with one block's output-port column corrupted."""
    rules = RuleSet(cookie=1)
    doomed = next(b for b in prep.rules.blocks if b.dsts)
    for block in prep.rules.blocks:
        if block is doomed:
            ports = (*block.out_ports[:-1], bad_port)
            block = CompiledBlock(
                phys_switch=block.phys_switch,
                metadata_id=block.metadata_id,
                cookie=block.cookie,
                classify_switches=block.classify_switches,
                classify_ports=block.classify_ports,
                dsts=block.dsts,
                in_vcs=block.in_vcs,
                out_vcs=block.out_vcs,
                out_ports=ports,
            )
        rules.add_block(block)
    return rules


@pytest.mark.parametrize("fault", ["port in a block column"])
def test_refused_rule_applies_nothing(fault):
    topology, prep = _prepared(1, 2)
    rules = _bad_port_rules(prep, EVAL_256x10G.num_ports + 1)
    victim = next(b for b in prep.rules.blocks if b.dsts).phys_switch
    twins = _twins(topology, 2)
    _install_base(twins, prep)
    before = _state(twins[0])
    errors = []
    for cluster, as_mods in zip(twins, (False, True)):
        channel = cluster.control.channel(victim)
        sent = channel.stats.flow_mods
        batch = rules.mods[victim] if as_mods else rules.runs()[victim]
        with pytest.raises(SimulationError) as refused:
            channel.send_batch(batch)
        assert _state(cluster) == before  # nothing applied
        assert channel.stats.flow_mods == sent + 1
        with pytest.raises(TransactionError) as caught:
            _commit(cluster, rules, as_mods=as_mods)
        assert isinstance(caught.value.__cause__, SimulationError)
        assert _state(cluster) == before
        errors.append((str(refused.value), caught.value.rollback))
    assert errors[0] == errors[1]
    assert _stats(twins[0]) == _stats(twins[1])
