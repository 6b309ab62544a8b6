"""Control-plane transactions: staging, validation, commit, rollback."""

import pytest

from repro.openflow import (
    ApplyActions,
    BarrierRequest,
    ControlPlane,
    ControlTransaction,
    FlowDelete,
    FlowMod,
    GroupEntry,
    Bucket,
    Match,
    OpenFlowSwitch,
    Output,
)
from repro.openflow.transaction import RollbackReport
from repro.util.errors import CapacityError, ChannelError, TransactionError

CAPACITY = 10


def mod(port: int = 1, cookie: int = 1, priority: int = 10) -> FlowMod:
    return FlowMod(
        table_id=0,
        priority=priority,
        match=Match(in_port=port),
        instructions=(ApplyActions((Output(port),)),),
        cookie=cookie,
    )


@pytest.fixture()
def plane():
    switches = {
        f"p{i}": OpenFlowSwitch(f"p{i}", 8, flow_table_capacity=CAPACITY)
        for i in range(3)
    }
    return ControlPlane(switches)


# --- staging & commit ----------------------------------------------------


def test_commit_installs_with_barrier_per_switch(plane):
    txn = ControlTransaction(plane)
    txn.stage("p0", mod(1), mod(2), mod(3))
    txn.stage("p1", mod(1), mod(2))
    elapsed = txn.commit()

    assert plane.channel("p0").switch.num_entries == 3
    assert plane.channel("p1").switch.num_entries == 2
    assert plane.channel("p0").stats.barriers == 1
    assert plane.channel("p1").stats.barriers == 1
    assert plane.channel("p2").stats.flow_mods == 0
    # parallel channels: commit time is the slowest channel, not the sum
    ch = plane.channel("p0")
    assert elapsed == pytest.approx(3 * ch.flow_install_latency + ch.rtt)


def test_empty_commit_is_a_noop(plane):
    assert ControlTransaction(plane).commit() == 0.0


def test_commit_twice_rejected(plane):
    txn = ControlTransaction(plane)
    txn.stage("p0", mod())
    txn.commit()
    with pytest.raises(TransactionError, match="already committed"):
        txn.commit()
    with pytest.raises(TransactionError, match="already committed"):
        txn.stage("p0", mod())


def test_stage_unknown_switch_rejected(plane):
    with pytest.raises(TransactionError, match="no control channel"):
        ControlTransaction(plane).stage("nope", mod())


def test_stage_rejects_non_transactional_messages(plane):
    with pytest.raises(TransactionError, match="BarrierRequest"):
        ControlTransaction(plane).stage("p0", BarrierRequest())


# --- validation ----------------------------------------------------------


def test_capacity_overflow_refused_before_touching_hardware(plane):
    sw = plane.channel("p0").switch
    for i in range(8):
        sw.add_flow(0, 10, Match(in_port=1), (ApplyActions((Output(1),)),))
    txn = ControlTransaction(plane)
    txn.stage("p0", mod(), mod(), mod())  # peak 11 > capacity 10
    with pytest.raises(CapacityError, match="peaks at 11"):
        txn.commit()
    assert sw.num_entries == 8  # untouched
    assert plane.channel("p0").stats.flow_mods == 0


def test_break_before_make_peak_fits_tight_table(plane):
    sw = plane.channel("p0").switch
    for _ in range(8):
        sw.add_flow(
            0, 10, Match(in_port=1), (ApplyActions((Output(1),)),), cookie=1
        )
    txn = ControlTransaction(plane)
    txn.stage("p0", FlowDelete(cookie=1))
    txn.stage("p0", *[mod(cookie=2) for _ in range(9)])
    txn.commit()  # peak max(8, 9) = 9 <= 10
    assert sw.num_entries == 9
    assert sw.count_entries(cookie=1) == 0


def test_make_before_break_peak_counts_both_generations(plane):
    sw = plane.channel("p0").switch
    for _ in range(8):
        sw.add_flow(
            0, 10, Match(in_port=1), (ApplyActions((Output(1),)),), cookie=1
        )
    txn = ControlTransaction(plane)
    txn.stage("p0", *[mod(cookie=2) for _ in range(9)])
    txn.stage("p0", FlowDelete(cookie=1))
    # transient peak 8 + 9 = 17 > 10 even though the end state (9) fits
    with pytest.raises(CapacityError, match="peaks at 17"):
        txn.validate()


def test_wildcard_delete_resets_the_peak_walk(plane):
    sw = plane.channel("p0").switch
    for _ in range(CAPACITY):
        sw.add_flow(0, 10, Match(in_port=1), (ApplyActions((Output(1),)),))
    txn = ControlTransaction(plane)
    txn.stage("p0", FlowDelete(cookie=None))
    txn.stage("p0", *[mod() for _ in range(CAPACITY)])
    assert txn.peak_entry_counts() == {"p0": CAPACITY}
    txn.commit()
    assert sw.num_entries == CAPACITY


def test_delta_stages_switches_in_first_seen_order(plane):
    rewired = FlowMod(0, 10, Match(in_port=2), (ApplyActions((Output(5),)),), 1)
    old = {"p2": [mod(1), mod(2)], "p0": [mod(3)]}
    new = {"p1": [mod(4)], "p2": [mod(1), rewired], "p0": []}
    txn = ControlTransaction(plane)
    stats = txn.stage_delta(old, new)
    # old generation's switches first, then the new one's: never the
    # string-hash order of a set
    assert txn.touched_switches == ("p2", "p0", "p1")
    # mod(2) -> rewired is one modified rule: an install and a delete
    assert (stats.installs, stats.deletes, stats.unchanged, stats.modified) == (
        2, 2, 1, 1,
    )


# --- rollback ------------------------------------------------------------


def test_midcommit_failure_rolls_back_applied_switches(plane):
    # pre-existing state on every switch
    for name in ("p0", "p1", "p2"):
        plane.channel(name).switch.add_flow(
            0, 5, Match(in_port=2), (ApplyActions((Output(2),)),), cookie=99
        )
    before = {n: c.switch.snapshot() for n, c in plane.channels.items()}

    txn = ControlTransaction(plane)
    txn.stage("p0", mod(), mod())
    txn.stage("p1", mod(), mod())
    txn.stage("p2", mod(), mod())
    plane.channel("p1").fail_after(2)  # dies mid-batch on the 2nd switch

    with pytest.raises(TransactionError, match="commit failed at p1") as exc:
        txn.commit()

    # every switch is byte-identical to its pre-transaction snapshot
    for name, channel in plane.channels.items():
        assert channel.switch.snapshot() == before[name], name

    report = exc.value.rollback
    assert isinstance(report, RollbackReport)
    assert report.switches_rolled_back == ("p1", "p0")  # reverse order
    assert report.entries_restored == 2
    assert report.modeled_time > 0
    assert isinstance(exc.value.__cause__, ChannelError)
    # p2 was never touched, so it was not (and needn't be) rolled back
    assert plane.channel("p2").stats.flow_mods == 0


def test_failed_delete_batch_restores_deleted_rules(plane):
    sw = plane.channel("p0").switch
    for _ in range(4):
        sw.add_flow(
            0, 10, Match(in_port=3), (ApplyActions((Output(3),)),), cookie=7
        )
    before = sw.snapshot()

    txn = ControlTransaction(plane)
    txn.stage("p0", FlowDelete(cookie=7), mod(cookie=8))
    plane.channel("p0").fail_after(2)  # delete lands, then the add dies

    with pytest.raises(TransactionError):
        txn.commit()
    assert sw.snapshot() == before
    assert sw.count_entries(cookie=7) == 4


def test_rollback_report_counts_partial_batch_reverts(plane):
    """A fault injected mid-batch leaves only a prefix of the batch
    applied; `entries_reverted` must count exactly that prefix (what
    the restore actually undid), not the staged batch size."""
    sw = plane.channel("p0").switch
    before = sw.snapshot()

    txn = ControlTransaction(plane)
    txn.stage("p0", *[mod(port=i + 1, cookie=1) for i in range(3)])
    txn.stage("p1", mod(), mod())
    plane.channel("p1").fail_after(2)  # p0 fully applied, p1 dies mid-batch

    with pytest.raises(TransactionError) as exc:
        txn.commit()
    report = exc.value.rollback
    # p1 applied 1 of its 2 mods before the fault; p0 applied all 3
    assert report.entries_reverted == 4
    assert report.entries_restored == 0  # both snapshots were empty
    assert sw.snapshot() == before


def test_rollback_report_reverted_counts_deletes_too(plane):
    sw = plane.channel("p0").switch
    for _ in range(2):
        sw.add_flow(
            0, 10, Match(in_port=3), (ApplyActions((Output(3),)),), cookie=7
        )
    txn = ControlTransaction(plane)
    txn.stage("p0", FlowDelete(cookie=7), mod(cookie=8), mod(cookie=8))
    plane.channel("p0").fail_after(3)  # delete + 1 add land, 2nd add dies
    with pytest.raises(TransactionError) as exc:
        txn.commit()
    # undone: 2 deleted entries reinstalled + 1 applied add removed
    assert exc.value.rollback.entries_reverted == 3
    assert sw.count_entries(cookie=7) == 2


def test_rollback_preserves_entry_counters(plane):
    sw = plane.channel("p0").switch
    entry = sw.add_flow(
        0, 10, Match(in_port=1), (ApplyActions((Output(1),)),), cookie=1
    )
    entry.hit(100)
    txn = ControlTransaction(plane)
    txn.stage("p0", mod(cookie=2), mod(cookie=2))
    plane.channel("p0").fail_after(2)
    with pytest.raises(TransactionError):
        txn.commit()
    surviving = next(iter(sw.tables[0]))
    assert surviving is entry
    assert surviving.byte_count == 100


# --- fault-injection hook ------------------------------------------------


def test_fail_after_is_one_shot(plane):
    channel = plane.channel("p0")
    channel.fail_after(1)
    with pytest.raises(ChannelError, match="injected"):
        channel.send(mod())
    channel.send(mod())  # reconnected: works again
    assert channel.switch.num_entries == 1


def test_fail_after_rejects_nonpositive(plane):
    with pytest.raises(ValueError):
        plane.channel("p0").fail_after(0)


# --- switch snapshot/restore ---------------------------------------------


def test_switch_snapshot_roundtrip_includes_groups():
    sw = OpenFlowSwitch("s", 4)
    sw.add_flow(0, 10, Match(in_port=1), (ApplyActions((Output(2),)),))
    sw.add_group(GroupEntry(1, "all", (Bucket((Output(1),)),)))
    snap = sw.snapshot()

    sw.remove_flows()
    sw.remove_group(1)
    sw.add_flow(1, 1, Match(in_port=2), (ApplyActions((Output(3),)),))
    assert sw.snapshot() != snap

    assert sw.restore(snap) == 1
    assert sw.snapshot() == snap
    assert 1 in sw.groups


def test_snapshot_restore_rejects_wrong_switch():
    a, b = OpenFlowSwitch("a", 4), OpenFlowSwitch("b", 4)
    with pytest.raises(Exception, match="cannot restore"):
        b.restore(a.snapshot())
