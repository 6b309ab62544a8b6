"""Chaos suite: kill the controller mid-transaction, prove recovery.

The durability claim under test (DESIGN.md §7): whatever point a
commit dies at, snapshot + journal replay reconstructs *exactly* the
committed state — the pre-state when the transaction never produced a
commit record (rolled back or killed), the post-state when it did —
bit-identical to an uninterrupted run, never a hybrid.

Two failure shapes are injected:

* **channel fault** (:meth:`ControlChannel.fail_after`) — the commit
  sees the exception, rolls back, and journals an abort. The process
  *survives*; both the live cluster and a recovered one must equal the
  pre-state.
* **process kill** — a :class:`BaseException` raised from inside a
  send escapes the transaction's ``except Exception`` entirely: no
  rollback runs and no abort record is written, exactly as if the
  controller process died. The live cluster is left a hybrid; the
  journal holds an unresolved intent; recovery must discard it.

The seeded property test interleaves both shapes at randomized
message offsets across a randomized committed-op sequence and checks
the recovered state against a linear-history reference run
(``SDT_PROP_CASES`` scales the case count).
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest

from repro.core import SDTController, TopologyConfig
from repro.recovery import SnapshotManager, install_journal, recover, uninstall_journal
from repro.topology import fat_tree
from repro.util.errors import ReproError, TransactionError

from tests.proptools import prop_cases, seeded_cases
from tests.recovery.conftest import fresh_cluster, installed_state

ROOT_SEED = 20260806


@pytest.fixture()
def ft4_config():
    return TopologyConfig.from_topology(fat_tree(4))


class _Killed(BaseException):
    """Simulated process death. Deliberately a BaseException: it must
    escape ``except Exception`` so neither rollback nor an abort
    record happens — the journal is left with an unresolved intent,
    just like a real SIGKILL between the intent and commit records."""


class _KillSwitch:
    """Wrap a cluster's control channels to die on the Nth message."""

    def __init__(self, cluster, after: int) -> None:
        self.remaining = after
        self._victims = []
        for channel in cluster.control.channels.values():
            orig_send, orig_batch = channel.send, channel.send_batch
            channel.send = self._wrap(orig_send)
            # route batches through the counting send so the kill lands
            # on exactly the same message a sequential run would die on
            channel.send_batch = lambda mods, _s=channel.send: [
                _s(m) for m in mods
            ]
            self._victims.append((channel, orig_send, orig_batch))

    def _wrap(self, orig):
        def send(msg):
            if self.remaining <= 0:
                raise _Killed()
            self.remaining -= 1
            return orig(msg)
        return send

    def disarm(self) -> None:
        for channel, orig_send, orig_batch in self._victims:
            channel.send = orig_send
            channel.send_batch = orig_batch


def _controller_with_journal(state_dir: Path, config, *, every: int = 3):
    manager = SnapshotManager(state_dir, every=every)
    journal = manager.journal()
    controller = SDTController(fresh_cluster())
    install_journal(journal)
    deployment = controller.deploy(config)
    return controller, deployment, manager, journal


def _first_link(deployment) -> int:
    return deployment.topology.switch_links[0].index


def test_rolled_back_transaction_recovers_to_pre_state(tmp_path, ft4_config):
    controller, deployment, manager, journal = _controller_with_journal(
        tmp_path / "state", ft4_config
    )
    try:
        manager.write(controller, journal)
        pre = installed_state(controller.cluster)

        for channel in controller.cluster.control.channels.values():
            channel.fail_after(3)
        with pytest.raises(TransactionError):
            controller.fail_link(deployment, _first_link(deployment))
        for channel in controller.cluster.control.channels.values():
            channel._fail_countdown = None  # disarm the unfired one
    finally:
        uninstall_journal()

    # rollback already restored the live cluster ...
    assert installed_state(controller.cluster) == pre
    # ... and the journal resolved the intent as aborted
    assert journal.read()[-1]["type"] == "abort"

    cluster = fresh_cluster()
    recover(tmp_path / "state", cluster=cluster)
    assert installed_state(cluster) == pre


def test_committed_transaction_recovers_to_post_state(tmp_path, ft4_config):
    controller, deployment, manager, journal = _controller_with_journal(
        tmp_path / "state", ft4_config
    )
    try:
        controller.fail_link(deployment, _first_link(deployment))
    finally:
        uninstall_journal()
    post = installed_state(controller.cluster)
    assert journal.read()[-1]["type"] == "commit"

    cluster = fresh_cluster()
    recover(tmp_path / "state", cluster=cluster)
    assert installed_state(cluster) == post


@pytest.mark.parametrize("kill_at", [1, 4, 50])
def test_killed_commit_recovers_to_pre_state(tmp_path, ft4_config, kill_at):
    """Die on the ``kill_at``-th control message of a route swap: no
    rollback, no abort record — recovery must still land exactly on
    the pre-transaction state, whatever prefix reached hardware."""
    controller, deployment, manager, journal = _controller_with_journal(
        tmp_path / "state", ft4_config
    )
    try:
        manager.write(controller, journal)
        pre = installed_state(controller.cluster)

        kill = _KillSwitch(controller.cluster, kill_at)
        with pytest.raises(_Killed):
            controller.fail_link(deployment, _first_link(deployment))
        kill.disarm()
    finally:
        uninstall_journal()

    # the process "died": the tail intent is unresolved
    records = journal.read()
    assert records[-1]["type"] == "intent"

    cluster = fresh_cluster()
    result = recover(tmp_path / "state", cluster=cluster)
    assert result.skipped >= 1
    assert installed_state(cluster) == pre


def test_chaos_property_recovery_matches_linear_history(ft4_config):
    """Satellite property: for a random committed-op history with
    random fault injections, recovery == a fault-free run of exactly
    the committed ops, bit for bit."""
    cases = prop_cases(5)
    for idx, rng in seeded_cases(cases, ROOT_SEED, "chaos-recovery"):
        with tempfile.TemporaryDirectory() as tmp:
            _one_case(idx, rng, Path(tmp) / "state", ft4_config)


def _one_case(idx: int, rng, state_dir: Path, config) -> None:
    controller, deployment, manager, journal = _controller_with_journal(
        state_dir, config
    )
    committed: list[tuple] = []
    killed = False
    try:
        links = deployment.topology.switch_links
        for _ in range(int(rng.integers(4, 9))):
            if rng.random() < 0.5:
                op = ("fail", int(rng.integers(len(links))))
            else:
                op = ("restore",)
            mode = rng.random()
            kill = None
            if mode < 0.25:
                for ch in controller.cluster.control.channels.values():
                    ch.fail_after(int(rng.integers(1, 8)))
            elif mode < 0.5:
                kill = _KillSwitch(
                    controller.cluster, int(rng.integers(1, 60))
                )
            try:
                _apply(controller, deployment, links, op)
            except _Killed:
                killed = True  # the process is dead: history ends here
                break
            except ReproError:
                pass  # vetoed or rolled back: not part of history
            else:
                committed.append(op)
            finally:
                if kill is not None:
                    kill.disarm()
                for ch in controller.cluster.control.channels.values():
                    ch._fail_countdown = None
            manager.maybe_write(controller, journal)
    finally:
        uninstall_journal()

    # linear-history reference: a fault-free controller running only
    # the committed ops, in order
    reference = SDTController(fresh_cluster())
    ref_dep = reference.deploy(config)
    ref_links = ref_dep.topology.switch_links
    for op in committed:
        _apply(reference, ref_dep, ref_links, op)
    expected = installed_state(reference.cluster)

    cluster = fresh_cluster()
    recover(state_dir, cluster=cluster)
    assert installed_state(cluster) == expected, (
        f"case {idx}: recovered state diverged from linear history "
        f"(committed={committed}, killed={killed})"
    )


def _apply(controller, deployment, links, op) -> None:
    if op[0] == "fail":
        controller.fail_link(deployment, links[op[1]].index)
    else:
        controller.restore_links(deployment)
