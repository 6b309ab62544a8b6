"""Cold recovery end to end: snapshot + journal replay → bit-identity.

The durability contract: a controller restarted from its state
directory converges to exactly the committed state — every committed
transaction applied, every aborted or unresolved one absent — and the
materialized switch tables are bit-identical to an uninterrupted
run's.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core import SDTController, TopologyConfig, build_cluster_for
from repro.hardware import H3C_S6861
from repro.openflow import (
    ApplyActions,
    ControlChannel,
    FlowDelete,
    FlowMod,
    GotoTable,
    Match,
    OpenFlowSwitch,
    Output,
    WriteMetadata,
)
from repro.openflow.transaction import ControlTransaction
from repro.recovery import (
    CommitJournal,
    JournalReplay,
    SnapshotManager,
    install_journal,
    load_recovery,
    recover,
    uninstall_journal,
)
from repro.recovery.snapshot import apply_recovery
from repro.hardware.wiring import HostPort
from repro.tenancy import TenantQuota
from repro.tenancy.session import TenantSession
from repro.topology import fat_tree, torus2d
from repro.topology.diff import rebuild, removable_switch_links
from repro.util.errors import ReproError

from tests.openflow.test_flowtable_lookup_prop import (
    PORTS,
    PRIORITIES,
    _random_match,
)
from tests.proptools import prop_cases, seeded_cases
from tests.recovery.conftest import fresh_cluster, installed_state

ROOT_SEED = 20261004
NUM_CASES = prop_cases(40)
NUM_SEQUENCES = prop_cases(20)


def _mutate(controller, deployment, ops, manager, journal):
    """``ops`` committed fail/restore transactions, snapshotting on
    the manager's cadence (the bench workload, minus the clock)."""
    links = deployment.topology.switch_links
    failed = False
    for i in range(ops):
        if failed:
            controller.restore_links(deployment)
            failed = False
        else:
            controller.fail_link(deployment, links[i % len(links)].index)
            failed = True
        manager.maybe_write(controller, journal)


def test_cold_recovery_is_bit_identical(journaled):
    controller, deployment, manager, journal = journaled
    _mutate(controller, deployment, 5, manager, journal)
    expected = installed_state(controller.cluster)

    cluster = fresh_cluster()
    recovered = SDTController(cluster)
    result = recover(
        manager.state_dir, cluster=cluster, controller=recovered
    )
    assert installed_state(cluster) == expected
    assert result.entries == sum(len(v) for v in expected.values())
    assert result.snapshot_lsn >= 0  # replay started from a snapshot
    # snapshots bound replay: far fewer records replayed than journaled
    assert result.replayed < result.journal_records


def test_recovery_without_snapshot_replays_whole_journal(journaled):
    controller, deployment, manager, journal = journaled
    _mutate(controller, deployment, 3, manager, journal)
    for p in manager.state_dir.glob("snapshot-*.json"):
        p.unlink()  # journal-only recovery

    cluster = fresh_cluster()
    result = recover(manager.state_dir, cluster=cluster)
    assert result.snapshot_lsn == -1
    assert result.replayed == 4  # deploy + 3 mutations
    assert installed_state(cluster) == installed_state(controller.cluster)


def test_unresolved_intent_is_skipped(journaled):
    controller, deployment, manager, journal = journaled
    _mutate(controller, deployment, 2, manager, journal)
    expected = installed_state(controller.cluster)

    # a crash mid-commit: intent journaled, no commit/abort ever lands
    journal.append_intent("crashed", {
        name: list(mods)
        for name, mods in deployment.rules.mods.items()
    })

    cluster = fresh_cluster()
    result = recover(manager.state_dir, cluster=cluster)
    assert result.skipped >= 1
    assert installed_state(cluster) == expected


def test_recovered_counters_cannot_collide(journaled):
    controller, deployment, manager, journal = journaled
    manager.write(controller, journal)
    # commits after the snapshot mint fresh cookies/metadata the
    # snapshot's counters know nothing about
    _mutate(controller, deployment, 3, manager, journal)

    cluster = fresh_cluster()
    recovered = SDTController(cluster)
    recover(manager.state_dir, cluster=cluster, controller=recovered)
    assert recovered._next_cookie >= controller._next_cookie
    assert recovered._next_metadata >= controller._next_metadata
    assert recovered.last_commit_strategy == controller.last_commit_strategy


def test_sessions_roundtrip_through_snapshot(journaled):
    controller, _deployment, manager, journal = journaled
    session = TenantSession(
        tenant_id="acme",
        index=2,
        quota=TenantQuota(host_ports=4, tcam_share=100),
        lease=(HostPort(switch="phys0", port=3, host="spare0"),),
    )
    session.next_cookie()  # advance the counter past its initial value
    manager.write(controller, journal, sessions=[session])

    restored: list[TenantSession] = []
    recover(manager.state_dir, sessions=restored)
    (back,) = restored
    assert back.tenant_id == "acme"
    assert back.index == 2
    assert back.quota.host_ports == 4
    assert back.lease == session.lease
    assert back._next_seq == session._next_seq


def test_load_recovery_is_pure(journaled):
    controller, deployment, manager, journal = journaled
    _mutate(controller, deployment, 2, manager, journal)
    before = installed_state(controller.cluster)
    result = load_recovery(manager.state_dir)
    # pure: no switch touched by loading
    assert installed_state(controller.cluster) == before

    cluster = fresh_cluster()
    installed = apply_recovery(result, cluster)
    assert installed == result.entries
    assert installed_state(cluster) == before


# --- the replayer itself: tailing, pending intents, commit order ----------

def _one_op(controller, deployment):
    controller.fail_link(
        deployment, deployment.topology.switch_links[0].index
    )


def _staged(deployment) -> dict:
    return {name: list(mods) for name, mods in deployment.rules.mods.items()}


def test_second_poll_consumes_only_new_records(journaled):
    controller, deployment, manager, _journal = journaled
    replay = JournalReplay(manager.state_dir)
    assert replay.poll() >= 2  # the deploy's intent + commit
    assert replay.poll() == 0  # nothing new: the offset advanced

    _one_op(controller, deployment)
    assert replay.poll() == 2  # exactly the new intent + commit
    result = replay.result()
    assert result.replayed == 2
    assert result.journal_records == len(_journal)


def test_unresolved_intent_stays_pending_and_is_never_applied(journaled):
    controller, deployment, manager, journal = journaled
    lsn = journal.append_intent("crashed", _staged(deployment))

    replay = JournalReplay(manager.state_dir)
    replay.poll()
    assert replay.pending_transactions == [lsn]
    # later traffic does not flush it out
    _one_op(controller, deployment)
    controller.restore_links(deployment)
    replay.poll()
    assert replay.pending_transactions == [lsn]
    expected = installed_state(controller.cluster)

    result = replay.result()
    assert result.skipped == 1
    cluster = fresh_cluster()
    apply_recovery(result, cluster)
    assert installed_state(cluster) == expected


def test_abort_resolves_a_pending_intent(journaled):
    controller, deployment, manager, journal = journaled
    expected = installed_state(controller.cluster)
    replay = JournalReplay(manager.state_dir)
    lsn = journal.append_intent("doomed", _staged(deployment))
    replay.poll()
    assert replay.pending_transactions == [lsn]

    journal.append_abort(lsn, reason="rolled back")
    replay.poll()
    assert replay.pending_transactions == []

    cluster = fresh_cluster()
    apply_recovery(replay.result(), cluster)
    assert installed_state(cluster) == expected


def test_polling_after_every_mutation_matches_polling_once(journaled):
    controller, deployment, manager, journal = journaled
    warm = JournalReplay(manager.state_dir)
    warm.poll()
    for _ in range(2):
        _one_op(controller, deployment)
        warm.poll()
        controller.restore_links(deployment)
        warm.poll()
    expected = installed_state(controller.cluster)

    promoted = fresh_cluster()
    installed = apply_recovery(warm.result(), promoted)
    assert installed == sum(len(v) for v in expected.values())
    cold = fresh_cluster()
    recover(manager.state_dir, cluster=cold)
    for name in expected:
        assert promoted.switches[name].installed_rules() == expected[name]
        assert cold.switches[name].installed_rules() == expected[name]


def test_replay_bootstraps_from_the_snapshot(journaled):
    controller, deployment, manager, journal = journaled
    _one_op(controller, deployment)
    manager.write(controller, journal)
    controller.restore_links(deployment)

    replay = JournalReplay(manager.state_dir)
    assert replay.poll() == len(journal)
    # intents at or before the snapshot frontier are already inside the
    # snapshot: read, counted as skipped, not replayed
    result = replay.result()
    assert (result.replayed, result.skipped) == (1, 2)

    cluster = fresh_cluster()
    apply_recovery(result, cluster)
    assert installed_state(cluster) == installed_state(controller.cluster)


_MOD = FlowMod(
    table_id=0,
    priority=5,
    match=Match(in_port=1),
    instructions=(ApplyActions((Output(2),)),),
    cookie=9,
)


def test_replay_skips_aborted_and_unresolved_and_keeps_commit_order(tmp_path):
    journal = CommitJournal(tmp_path / "journal.jsonl")
    add = journal.append_intent("deploy", {"phys0": [_MOD]})
    aborted = journal.append_intent(
        "bad-edit", {"phys0": [_MOD._replace(cookie=7)]}
    )
    journal.append_abort(aborted, reason="rolled back")
    wipe = journal.append_intent("wipe", {"phys0": [FlowDelete(cookie=9)]})
    # the wipe's commit record lands first: hardware saw it before the add
    journal.append_commit(wipe)
    journal.append_commit(add)
    crashed = journal.append_intent(
        "crashed", {"phys0": [_MOD._replace(cookie=8)]}
    )

    replay = JournalReplay(tmp_path)
    assert replay.poll() == len(journal)
    assert replay.pending_transactions == [crashed]
    result = replay.result()
    assert (result.replayed, result.skipped) == (2, 2)
    # applied in commit order the add survives the wipe; the aborted and
    # the unresolved intents left nothing behind
    switch = OpenFlowSwitch("phys0", 4)
    apply_recovery(result, SimpleNamespace(switches={"phys0": switch}))
    assert switch.installed_rules() == [
        (0, 5, _MOD.match, _MOD.instructions, 9)
    ]


# --- differential: raw message lists against a live switch ---------------

def _raw_message(rng, live: OpenFlowSwitch) -> FlowMod | FlowDelete:
    """A FlowMod, or one of the five FlowDelete shapes: strict,
    cookie-only, cookie+priority, table-scoped, all-``None``."""
    kind = rng.random()
    table = int(rng.integers(0, len(live.tables)))
    if kind < 0.6:
        if table + 1 < len(live.tables) and rng.random() < 0.3:
            instructions = (
                WriteMetadata(int(rng.integers(1, 4))), GotoTable(table + 1),
            )
        else:
            instructions = (ApplyActions((Output(int(rng.choice(PORTS))),)),)
        return FlowMod(
            table_id=table,
            priority=int(rng.choice(PRIORITIES)),
            match=_random_match(rng),
            instructions=instructions,
            cookie=int(rng.integers(0, 3)),
        )
    cookie = int(rng.integers(0, 3))
    if kind < 0.8:
        keys = live.entry_keys()
        if keys and rng.random() < 0.7:  # an installed entry's own key
            table, priority, match, cookie = keys[int(rng.integers(len(keys)))]
        else:
            priority, match = int(rng.choice(PRIORITIES)), _random_match(rng)
        return FlowDelete(
            cookie=cookie if rng.random() < 0.7 else None,
            table_id=table if rng.random() < 0.7 else None,
            priority=priority,
            match=match,
        )
    if kind < 0.88:
        return FlowDelete(cookie=cookie)
    if kind < 0.94:
        return FlowDelete(cookie=cookie, priority=int(rng.choice(PRIORITIES)))
    if kind < 0.98:
        return FlowDelete(table_id=table)
    return FlowDelete()


def test_replay_of_raw_messages_matches_a_live_switch(tmp_path):
    """The controller only ever stages what synthesis emits; this
    journals arbitrary message lists, applies the committed ones to a
    live switch through its control channel, snapshots at a random
    point, and demands that a follower polled after every transaction
    and a cold replay both rebuild exactly ``installed_rules()``."""
    for case, rng in seeded_cases(NUM_CASES, ROOT_SEED, "raw-replay"):
        manager = SnapshotManager(tmp_path / f"case{case}")
        journal = manager.journal()
        live = OpenFlowSwitch("phys0", len(PORTS))
        channel = ControlChannel(live)
        controller = SimpleNamespace(
            cluster=SimpleNamespace(switches={"phys0": live}),
            deployments=[], seed=0, placement="", _next_cookie=0,
            _next_metadata=0, last_commit_strategy="",
        )
        warm = JournalReplay(manager.state_dir)
        transactions = int(rng.integers(3, 10))
        snapshot_at = int(rng.integers(0, transactions + 1))
        for txn in range(transactions):
            messages = [
                _raw_message(rng, live)
                for _ in range(int(rng.integers(1, 12)))
            ]
            lsn = journal.append_intent(f"txn{txn}", {"phys0": messages})
            fate = rng.random()
            if fate < 0.75:
                for msg in messages:
                    channel.send(msg)
                journal.append_commit(lsn)
            elif fate < 0.9:
                journal.append_abort(lsn, reason="rolled back")
            # else: died between intent and hardware — never resolved
            warm.poll()
            if txn == snapshot_at:
                manager.write(controller, journal)
        expected = live.installed_rules()

        for label, result in (
            ("warm", warm.result()),
            ("cold", load_recovery(manager.state_dir)),
        ):
            target = OpenFlowSwitch("phys0", len(PORTS))
            apply_recovery(
                result, SimpleNamespace(switches={"phys0": target})
            )
            assert target.installed_rules() == expected, (
                f"case {case} ({label}): replay diverged from the switch"
            )


# --- differential: controller operations against the live switches -------

#: the two generations a cold reconfigure swaps between
CONFIGS = [
    TopologyConfig("fat-tree", {"k": 4}),
    TopologyConfig("torus2d", {"x": 4, "y": 4}),
]


def _two_topology_cluster():
    return build_cluster_for([fat_tree(4), torus2d(4, 4)], 2, H3C_S6861)


def _random_ops(controller, rng) -> None:
    """Deploy, then a random mix of swaps, edits, failures, repairs."""
    deployment = controller.deploy(CONFIGS[int(rng.integers(len(CONFIGS)))])
    for _ in range(int(rng.integers(3, 7))):
        op = int(rng.integers(4))
        if op == 0:
            deployment, _t = controller.reconfigure(
                CONFIGS[int(rng.integers(len(CONFIGS)))]
            )
        elif op == 3:
            # a 1-link edit: exercises the incremental path's strict
            # FlowDelete delta (falls back to cold when pinned)
            keys = removable_switch_links(deployment.topology)
            if not keys:
                continue
            edited = rebuild(
                deployment.topology,
                drop_links={keys[int(rng.integers(len(keys)))]},
            )
            try:
                deployment, _t = controller.reconfigure(
                    TopologyConfig.from_topology(edited)
                )
            except ReproError:
                pass  # edit refused (capacity): nothing committed
        elif op == 1:
            links = deployment.topology.switch_links
            try:
                controller.fail_link(
                    deployment, links[int(rng.integers(len(links)))].index
                )
            except ReproError:
                pass  # refused (disconnects/already failed)
        else:
            try:
                controller.restore_links(deployment)
            except ReproError:
                pass


def _recovered(state_dir) -> dict[str, list]:
    cluster = _two_topology_cluster()
    apply_recovery(load_recovery(state_dir), cluster)
    return installed_state(cluster)


@pytest.mark.parametrize(
    "case,rng",
    list(seeded_cases(NUM_SEQUENCES, ROOT_SEED, "controller-replay")),
    ids=lambda v: str(v) if isinstance(v, int) else "",
)
def test_journal_replay_matches_live_switch_state(case, rng, tmp_path):
    """The commit journal is the one per-message history: replaying a
    random mix of deploys, cold swaps, 1-link edits, link failures
    (transactional reroutes, sometimes rolled back) and repairs onto a
    fresh cluster rebuilds every switch's table exactly, in order."""
    controller = SDTController(_two_topology_cluster())
    install_journal(CommitJournal(tmp_path / "journal.jsonl"))
    try:
        _random_ops(controller, rng)
    finally:
        uninstall_journal()
    live = installed_state(controller.cluster)
    recovered = _recovered(tmp_path)
    for name, rules in live.items():
        assert recovered[name] == rules, (
            f"case {case}: replayed state diverges on {name}"
        )


def test_incremental_edit_journals_strict_deletes_faithfully(tmp_path):
    """A 1-link incremental edit pushes strict deletes; its intent
    record carries them, replay rebuilds the post-edit tables, and
    those equal a from-scratch install of the edited rule set."""
    base = fat_tree(4)
    edited = rebuild(base, drop_links={removable_switch_links(base)[0]})
    controller = SDTController(_two_topology_cluster())
    journal = install_journal(CommitJournal(tmp_path / "journal.jsonl"))
    try:
        controller.deploy(TopologyConfig.from_topology(base))
        deployment, _t = controller.reconfigure(
            TopologyConfig.from_topology(edited)
        )
    finally:
        uninstall_journal()
    assert controller.last_commit_strategy  # the edit committed

    edit = [r for r in journal.read() if r["type"] == "intent"][-1]
    strict = [
        msg for msgs in edit["ops"].values() for msg in msgs
        if msg["kind"] == "del" and msg["match"] is not None
    ]
    assert strict, "incremental edit staged no strict deletes"

    live = installed_state(controller.cluster)
    assert _recovered(tmp_path) == live

    scratch = _two_topology_cluster()
    txn = ControlTransaction(scratch.control, label="scratch")
    txn.stage_rules(deployment.rules)
    txn.commit()
    # as multisets: an edit appends its new rules after the survivors,
    # a fresh install lays them out in rule-set order
    for name, rules in installed_state(scratch).items():
        assert sorted(map(repr, rules)) == sorted(map(repr, live[name]))
