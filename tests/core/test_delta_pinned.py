"""Incremental edits' staged deltas, pinned bit for bit.

Each case's digest is the SHA-256 over every edit it runs, in order, of:

* each committed transaction's staged messages — per switch in staging
  order, the ``repr`` of every ``FlowMod`` / ``FlowDelete`` (a staged
  run stands for its FlowMods) — and the modeled commit time it
  returned, or the error it raised;
* the installs, deletes and modifications of every ``stage_delta``
  call;
* the edit's pushed / unchanged counters (``Mutation.pushed`` /
  ``unchanged`` as published), its modeled time and the commit
  strategy it took;
* the commit journal records it appended (intent records included),
  byte for byte.

So any drift in which rows a delta stages, their order, the switch
order of a commit (its rollback order), the delta's counts or the
journal's bytes moves a digest here.

Covers the ledger's eight fat-tree k=8 links (every 29th removable
link) dropped and restored; seeded edit walks (link drops, re-adds and
restores, as in ``tests/routing/test_shortest_path_repair.py``) on
fat-tree k=4/8, a 6×6 torus and a 20-switch chain closed into a ring;
lossless strategy changes that resolve every sub-switch (fat-tree k=4
shortest-path ↔ up/down, and a 4×4 torus whose dateline VCs give way
to lossy shortest-path rows); tenant edits through ``TestbedService``
(fat-tree k=8 on a four-switch pool, and chain-3 ↔ chain-4 beside a
resident tenant, the edits ``service_churn`` runs); chain edits that
add and remove a switch, so sub-switches appear and vanish; and
hand-built generations no controller edit produces (a sub-switch moved
to another switch or cookie, reordered rows, a switch whose dirty old
block keeps every row), split and staged directly.

Last, generations that repeat a rule identity on a switch must be
refused by ``stage_delta`` with the same error whichever rows
``split_ruleset_delta`` leaves out.
"""

from __future__ import annotations

import hashlib
import tempfile
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core import SDTController, TopologyConfig, build_cluster_for
from repro.core.columnar import NO_VC, CompiledBlock
from repro.core.rules import RuleSet, split_ruleset_delta
from repro.hardware import EVAL_256x10G
from repro.openflow import ControlTransaction
from repro.openflow.channel import flow_messages
from repro.recovery import CommitJournal, install_journal, uninstall_journal
from repro.telemetry import metrics
from repro.tenancy import TenantQuota, TestbedService, build_pool_for_tenants
from repro.topology import chain, fat_tree, torus2d
from repro.topology.diff import rebuild, removable_switch_links
from repro.util.errors import TransactionError
from repro.util.rng import make_rng
from tests.routing.test_shortest_path_repair import ROOT_SEED, _walk
from tests.tenancy.conftest import CHAIN4, CHAIN6, SPEC, run_op

CHAIN3 = TopologyConfig("chain", {"num_switches": 3, "hosts_per_switch": 1})
_PUSHED = "sdt_reconfig_rules_pushed_total"
_UNCHANGED = "sdt_reconfig_rules_unchanged_total"


def _counter(name: str) -> float:
    return metrics.registry().counter(name).value()


class _Digest:
    """Everything one case's edits stage, commit and journal, hashed."""

    def __init__(self, journal: CommitJournal) -> None:
        self.journal = journal
        self.sha = hashlib.sha256()
        self._journal_at = 0

    def update(self, *fields) -> None:
        self.sha.update(repr(fields).encode())
        self.sha.update(b"\n")

    @contextmanager
    def recording(self):
        """Hash every ``stage_delta`` result and every commit while the
        block runs; the class attributes are restored afterwards."""
        stage_delta = ControlTransaction.stage_delta
        commit = ControlTransaction.commit

        def recorded_stage_delta(txn, old_mods, new_mods):
            stats = stage_delta(txn, old_mods, new_mods)
            # its ``unchanged`` counts only the rows it was handed: the
            # edit's total is the published counter below
            self.update(
                "stage_delta", txn.label, stats.installs, stats.deletes,
                stats.modified,
            )
            return stats

        def recorded_commit(txn):
            staged = [
                (name, [repr(m) for m in flow_messages(msgs)])
                for name, msgs in txn._ops.items()
            ]
            try:
                modeled = commit(txn)
            except Exception as exc:
                self.update("commit", txn.label, staged, type(exc).__name__)
                raise
            self.update("commit", txn.label, staged, modeled)
            return modeled

        ControlTransaction.stage_delta = recorded_stage_delta
        ControlTransaction.commit = recorded_commit
        try:
            yield
        finally:
            ControlTransaction.stage_delta = stage_delta
            ControlTransaction.commit = commit

    def skip_journal(self) -> None:
        """Leave what the journal holds so far out of the digest."""
        self._journal_at = self.journal.path.stat().st_size

    def edit(self, controller: SDTController, fn, *args, **kwargs):
        """Run one edit (``fn(*args, **kwargs)``) and hash what it did."""
        pushed, unchanged = _counter(_PUSHED), _counter(_UNCHANGED)
        with self.recording():
            result = fn(*args, **kwargs)
        modeled = result[1] if isinstance(result, tuple) else None
        self.update(
            "edit",
            _counter(_PUSHED) - pushed,
            _counter(_UNCHANGED) - unchanged,
            modeled,
            controller.last_commit_strategy,
        )
        with self.journal.path.open("rb") as fh:
            fh.seek(self._journal_at)
            appended = fh.read()
        self._journal_at += len(appended)
        self.sha.update(appended)
        return result


@contextmanager
def _journaled():
    with tempfile.TemporaryDirectory() as tmp:
        journal = install_journal(CommitJournal(Path(tmp) / "journal.jsonl"))
        try:
            yield _Digest(journal)
        finally:
            uninstall_journal()


def _ledger_k8() -> str:
    base = fat_tree(8)
    base_config = TopologyConfig.from_topology(base)
    links = removable_switch_links(base)[::29][:8]
    assert len(links) == 8
    with _journaled() as d:
        controller = SDTController(build_cluster_for([base], 4, EVAL_256x10G))
        controller.deploy(base_config)
        d.skip_journal()
        for link in links:
            edited = TopologyConfig.from_topology(rebuild(base, drop_links={link}))
            for config in (edited, base_config):
                d.edit(controller, controller.reconfigure, config)
        return d.sha.hexdigest()


def _ring(topology):
    """``topology`` with its first and last switch linked: a chain has
    no link whose drop keeps it connected, a ring has nothing else."""
    first, last = topology.switches[0], topology.switches[-1]
    return rebuild(topology, add_links=[(first, last)])


def _walk_case(name: str, base, switches: int) -> str:
    rng = make_rng(ROOT_SEED, "pinned-delta", name)
    with _journaled() as d:
        controller = SDTController(build_cluster_for([base], switches, EVAL_256x10G))
        controller.deploy(TopologyConfig.from_topology(base))
        d.skip_journal()
        for _old, new in _walk(rng, base):
            d.edit(
                controller, controller.reconfigure, TopologyConfig.from_topology(new)
            )
        return d.sha.hexdigest()


def _lossless_strategy_changes() -> str:
    """Strategy changes resolve every sub-switch: lossless fat-tree k=4
    shortest-path ↔ up/down, and a lossless 4×4 torus whose dateline
    rows (incoming VCs set) give way to lossy shortest-path rows."""
    with _journaled() as d:
        ft4 = fat_tree(4)
        shortest = TopologyConfig.from_topology(ft4, lossless=True)
        controller = SDTController(build_cluster_for([ft4], 2, EVAL_256x10G))
        controller.deploy(shortest)
        d.skip_journal()
        for config in (replace(shortest, routing="fat-tree-updown"), shortest):
            d.edit(controller, controller.reconfigure, config)

        dateline = TopologyConfig("torus2d", {"x": 4, "y": 4})
        t44 = dateline.build()
        controller = SDTController(build_cluster_for([t44], 2, EVAL_256x10G))
        controller.deploy(dateline)
        d.skip_journal()
        lossy = TopologyConfig.from_topology(t44, name=t44.name)
        for config in (lossy, dateline):
            d.edit(controller, controller.reconfigure, config)
        return d.sha.hexdigest()


def _tenant_edits() -> str:
    """Tenant edits through the service: a fat-tree k=8 link dropped and
    restored twice, and chain-3 ↔ chain-4 beside a resident chain-6."""
    with _journaled() as d:
        topo = fat_tree(8)
        pool = build_pool_for_tenants([topo], 4, EVAL_256x10G, spare_hosts=16)
        service = TestbedService(pool)
        try:
            service.open_session("t", TenantQuota(
                host_ports=len(pool.wiring.host_ports),
                tcam_share=EVAL_256x10G.flow_table_capacity,
            ))
            base = TopologyConfig.from_topology(topo)
            deployment = run_op(service, "deploy", "t", config=base)
            d.skip_journal()
            for link in removable_switch_links(topo)[:2]:
                edited = TopologyConfig.from_topology(rebuild(topo, drop_links={link}))
                for config in (edited, base):
                    d.edit(
                        service.controller, run_op, service, "reconfigure", "t",
                        name=deployment.name, config=config,
                    )
        finally:
            service.shutdown()

        pool = build_pool_for_tenants(
            [CHAIN6.build(), CHAIN3.build(), CHAIN4.build()], 3, SPEC, spare_hosts=8
        )
        service = TestbedService(pool)
        try:
            service.open_session("r", TenantQuota(host_ports=12, tcam_share=2000))
            run_op(service, "deploy", "r", config=CHAIN6)
            service.open_session("c", TenantQuota(host_ports=8, tcam_share=500))
            deployment = run_op(service, "deploy", "c", config=CHAIN3)
            d.skip_journal()
            for config in (CHAIN4, CHAIN3, CHAIN4):
                deployment = d.edit(
                    service.controller, run_op, service, "reconfigure", "c",
                    name=deployment.name, config=config,
                )
        finally:
            service.shutdown()
        return d.sha.hexdigest()


def _switch_added_and_removed() -> str:
    """chain-6 → chain-7 → chain-6 under one name: the added sub-switch
    and the removed one have no partner block."""
    with _journaled() as d:
        c6, c7 = chain(6), chain(7)
        controller = SDTController(build_cluster_for([c7], 3, EVAL_256x10G))
        controller.deploy(TopologyConfig.from_topology(c6, name="chain"))
        d.skip_journal()
        for topo in (c7, c6):
            d.edit(
                controller,
                controller.reconfigure,
                TopologyConfig.from_topology(topo, name="chain"),
            )
        return d.sha.hexdigest()


def _rules(*blocks: CompiledBlock) -> RuleSet:
    rules = RuleSet(cookie=1)
    for block in blocks:
        rules.add_block(block)
    return rules


def _block(
    metadata_id, ports, dsts, out_ports, *, switch="phys0", cookie=1
) -> CompiledBlock:
    """A hand-built block: wildcard incoming VC, out-VC 0."""
    return CompiledBlock(
        switch, metadata_id, cookie,
        (switch,) * len(ports), tuple(ports),
        tuple(dsts), (NO_VC,) * len(dsts), (0,) * len(dsts), tuple(out_ports),
    )


#: generations no controller edit produces — a sub-switch moved to
#: another switch (same metadata id and rows) or re-issued under
#: another cookie, rows reordered, a switch whose only dirty block on
#: the old side keeps all its rows — split and staged directly
_HAND_BUILT = {
    "moved-to-another-switch": (
        [_block(7, [1], ["10.0.0.1", "10.0.0.2"], [2, 3])],
        [_block(7, [1], ["10.0.0.1", "10.0.0.2"], [2, 3], switch="phys1")],
    ),
    "new-cookie": (
        [_block(8, [1], ["10.0.0.1"], [2])],
        [_block(8, [1], ["10.0.0.1"], [2], cookie=2)],
    ),
    "rows-reordered-and-rerouted": (
        [_block(5, [1, 2], ["10.0.0.1", "10.0.0.2", "10.0.0.3"], [2, 3, 4])],
        [_block(5, [2, 3], ["10.0.0.3", "10.0.0.1", "10.0.0.2"], [4, 2, 5])],
    ),
    "rows-added-beside-a-removed-block": (
        [_block(5, [1], ["10.0.0.1"], [2]),
         _block(6, [4], ["10.0.0.1"], [5], switch="phys1")],
        [_block(5, [1], ["10.0.0.1", "10.0.0.2"], [2, 3])],
    ),
}


def _hand_built() -> str:
    sha = hashlib.sha256()
    cluster = build_cluster_for([fat_tree(4)], 2, EVAL_256x10G)
    for case, (old, new) in _HAND_BUILT.items():
        txn = ControlTransaction(cluster.control, label=case)
        delta = split_ruleset_delta(_rules(*old), _rules(*new))
        stats = txn.stage_delta(delta.old_mods, delta.new_mods)
        sha.update(repr((
            case,
            [(name, [repr(m) for m in msgs]) for name, msgs in txn._ops.items()],
            stats.installs, stats.deletes, stats.modified,
            stats.unchanged + delta.shared_rules,
        )).encode())
    return sha.hexdigest()


def pinned_digests() -> dict[str, str]:
    return {
        "ledger-k8": _ledger_k8(),
        "walk-fat-tree-k4": _walk_case("fat-tree-k4", fat_tree(4), 2),
        "walk-fat-tree-k8": _walk_case("fat-tree-k8", fat_tree(8), 4),
        "walk-torus-6x6": _walk_case("torus-6x6", torus2d(6, 6), 4),
        "walk-chain-20": _walk_case("chain-20", _ring(chain(20)), 6),
        "lossless-strategy-changes": _lossless_strategy_changes(),
        "tenant-edits": _tenant_edits(),
        "switch-added-and-removed": _switch_added_and_removed(),
        "hand-built": _hand_built(),
    }


PINNED = {
    "ledger-k8": (
        "e837ab07010962617e4d1be4c4da0c735a9f709259ca9dc73c7efe857cb0a1d7"
    ),
    "walk-fat-tree-k4": (
        "ba50f2d2b229b60c329b700c5c6f72056ce19c778271684f3848dbbb59f2f3af"
    ),
    "walk-fat-tree-k8": (
        "791e48fa2b664ded68bed0c24d390e27894a862840fa97e21273ceee0dc96257"
    ),
    "walk-torus-6x6": (
        "4334d04a1be129568fd6637443f1d697f2619c0209ef9c20d7031ea56c95406a"
    ),
    "walk-chain-20": (
        "07ceb6b904505773e630947eea3a00fd2a31d768b80c4f49fc9a4bd4e2dec856"
    ),
    "lossless-strategy-changes": (
        "a8b8362762aa106558eaa78043d482a348cb5f07be8dceb399a0fa9df3741eed"
    ),
    "tenant-edits": (
        "748146b97d1aee381946c1390edc57f97e0cb4c10368e00df09842917e4fc8d1"
    ),
    "switch-added-and-removed": (
        "861c483feb65de5b08a4342a22bb8797ed8056fa60dcfcbb4fb07e685cb73b4a"
    ),
    "hand-built": (
        "c92da924eebe24c4330c49761770262008f8a9a26d784efbf697b879570b8fa6"
    ),
}


def test_staged_deltas_match_the_pinned_digests():
    got = pinned_digests()
    assert sorted(got) == sorted(PINNED)
    differing = sorted(k for k in got if got[k] != PINNED[k])
    assert not differing, f"staged deltas drifted on {differing}"


# --- duplicate rows: stage_delta refuses them, whatever split_ruleset_delta drops

_DUPLICATES = {
    # one dirty block routes (10.0.0.1, no VC) twice; only its last row
    # changes
    "repeated-row": (
        [_block(5, [1], ["10.0.0.1", "10.0.0.2", "10.0.0.1"], [2, 3, 4])],
        [_block(5, [1], ["10.0.0.1", "10.0.0.2", "10.0.0.1"], [2, 3, 5])],
    ),
    # two dirty blocks on phys0 classify port 1; their classification
    # rows are the same in both generations
    "port-classified-twice": (
        [_block(5, [1], ["10.0.0.1"], [2]), _block(6, [1], ["10.0.0.1"], [3])],
        [_block(5, [1], ["10.0.0.1"], [4]), _block(6, [1], ["10.0.0.1"], [5])],
    ),
    # two dirty blocks share (phys0, metadata 5, cookie 1) and both route
    # 10.0.0.1
    "shared-subswitch-key": (
        [_block(5, [1], ["10.0.0.1"], [2]), _block(5, [2], ["10.0.0.1"], [3])],
        [_block(5, [1], ["10.0.0.1"], [4]), _block(5, [2], ["10.0.0.1"], [3])],
    ),
}


@pytest.mark.parametrize("case", sorted(_DUPLICATES))
def test_duplicate_rows_are_refused(case):
    old, new = _DUPLICATES[case]
    cluster = build_cluster_for([fat_tree(4)], 2, EVAL_256x10G)
    txn = ControlTransaction(cluster.control, label="edit")
    delta = split_ruleset_delta(_rules(*old), _rules(*new))
    with pytest.raises(TransactionError) as refusal:
        txn.stage_delta(delta.old_mods, delta.new_mods)
    assert str(refusal.value) == (
        "transaction 'edit': duplicate rules on 'phys0' make a delta "
        "ambiguous; stage full generations instead"
    )
