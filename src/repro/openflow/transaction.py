"""Failure-atomic control-plane transactions.

The paper's reconfiguration story (§V, Fig. 2/13) is "push new flow
tables"; on a live testbed that push must be *all-or-nothing*. A
half-installed update — some switches on the new rules, others on the
old, or worse, a switch whose old rules were deleted before the new
ones arrived — corrupts the deployment: traffic blackholes, isolation
metadata dangles, and on a lossless fabric an unvetted partial route
set can even deadlock. Reconfigurable-DCN controllers treat
failure-atomic updates as table stakes; SDT's controller gets the same
guarantee here.

:class:`ControlTransaction` stages :class:`FlowMod` /
:class:`FlowDelete` batches per switch — a whole rule set as one
:class:`FlowModRun` per switch, whose FlowMods are built only for the
consumers that need each message — validates flow-table capacity
against the worst in-flight entry count *before* touching hardware,
then commits switch by switch with barrier semantics. (Checks on the
rules' meaning, such as Deadlock Avoidance's CDG acyclicity, run in
the controller before anything is staged.) Each switch's rule state is
snapshotted just before its batch is applied; if any send or barrier
fails, every already-touched switch is rolled back to its snapshot and
a :class:`~repro.util.errors.TransactionError` carrying the
:class:`RollbackReport` is raised. After a failed commit the network is
byte-identical to its pre-transaction state.

Validation of capacity walks the staged batch *in order*, so the same
machinery prices both update disciplines:

* **make-before-break** — stage the new rules first, then the delete of
  the old cookie: both generations coexist transiently (the peak is
  old + new entries), and since equal-priority lookups prefer the
  earlier-installed entry, traffic keeps flowing on the old rules until
  the delete lands.
* **break-before-make** — stage the delete first: the peak never
  exceeds max(old, new), fitting tight TCAMs at the cost of a transient
  forwarding gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.openflow.channel import (
    BarrierRequest,
    ControlPlane,
    FlowDelete,
    FlowMod,
    flow_messages,
)
from repro.openflow.switch import FlowModRun, ModifyRun, SwitchSnapshot
from repro.telemetry import metrics, trace
from repro.util.errors import CapacityError, TransactionError

#: messages a transaction may stage
StagedMessage = FlowMod | FlowDelete | FlowModRun | ModifyRun


@dataclass(frozen=True)
class DeltaStats:
    """What :meth:`ControlTransaction.stage_delta` actually staged."""

    #: FlowMods for entries only in the new generation
    installs: int
    #: strict FlowDeletes for entries only in the old generation
    deletes: int
    #: entries in both mappings it was handed, left untouched on-switch;
    #: rows the caller left out as unchanged are not counted (an
    #: incremental edit adds ``RulesDelta.shared_rules``)
    unchanged: int
    #: identities in both generations whose instructions differ: each
    #: is counted once in ``installs`` and once in ``deletes``
    modified: int

    @property
    def pushed(self) -> int:
        """Control messages the delta costs (the Fig. 13 currency)."""
        return self.installs + self.deletes


@dataclass(frozen=True)
class RollbackReport:
    """What a failed commit's rollback did."""

    #: switches restored to their pre-transaction snapshot, in restore
    #: order (reverse order of application)
    switches_rolled_back: tuple[str, ...]
    #: flow entries reinstalled across all rolled-back switches
    entries_restored: int
    #: modeled recovery time (switch restores proceed in parallel, so
    #: this is the max per-switch restore time, not the sum)
    modeled_time: float
    #: transaction-applied changes the restore actually undid: entries
    #: the failed commit had installed (now removed) plus entries it had
    #: deleted (now back). Computed by identity diff against each
    #: snapshot, so it stays exact even when the failure cut a batched
    #: install partway through (only the applied prefix counts)
    entries_reverted: int = 0


class ControlTransaction:
    """One atomic batch of control-plane mutations over a cluster."""

    def __init__(self, control: ControlPlane, *, label: str = "") -> None:
        self.control = control
        self.label = label
        self._ops: dict[str, list[StagedMessage]] = {}
        #: per switch, [FlowMods staged (a run counts as its rows),
        #: FlowDeletes staged] — what validation and commit tally
        #: instead of walking the messages
        self._staged: dict[str, list[int]] = {}
        self._committed = False

    # --- staging ------------------------------------------------------
    def stage(self, switch_name: str, *messages: StagedMessage) -> None:
        """Queue messages for one switch, preserving staging order."""
        self._check_open()
        if switch_name not in self.control.channels:
            raise TransactionError(
                f"{self._tag}: no control channel to {switch_name!r}"
            )
        if not messages:
            return
        ops = self._ops.setdefault(switch_name, [])
        staged = self._staged.setdefault(switch_name, [0, 0])
        before = staged[0] + staged[1]
        for msg in messages:
            if isinstance(msg, FlowMod):
                staged[0] += 1
            elif isinstance(msg, FlowDelete):
                staged[1] += 1
            elif isinstance(msg, FlowModRun):
                staged[0] += len(msg)
            elif isinstance(msg, ModifyRun):
                staged[0] += len(msg.entries)
                staged[1] += len(msg.entries)
            else:
                raise TransactionError(
                    f"{self._tag}: cannot stage {type(msg).__name__} "
                    "(only FlowMod/FlowDelete are transactional)"
                )
            ops.append(msg)
        trace.event(
            "txn.stage",
            label=self.label,
            switch=switch_name,
            messages=staged[0] + staged[1] - before,
        )

    def stage_rules(self, rules) -> None:
        """Queue the installs of one rule set.

        ``rules`` is a rule set — anything whose ``runs()`` returns one
        :class:`FlowModRun` per switch it lands on, as
        :class:`repro.core.rules.RuleSet` does — or the classic
        ``{switch: [FlowMod]}`` mapping (a RuleSet's ``mods``). Either
        way each switch ends up with the same FlowMods staged in the
        same order; a run is staged as *one* message that counts as
        its rows, and nothing on the way to the switch builds its
        FlowMods unless it needs each message: the journal's intent
        record, the capacity simulation when deletes that name a
        priority or match are staged on the same switch, and — on the
        channel — an armed fault or an install that would overflow the
        TCAM part-way. On the switch its rows stay pending until a
        reader needs the entries."""
        if isinstance(rules, Mapping):
            for name, batch in rules.items():
                self.stage(name, *batch)
        else:
            for name, run in rules.runs().items():
                self.stage(name, run)

    def stage_delete(self, switch_names: Iterable[str], cookie: int | None) -> None:
        """Queue a cookie delete on each named switch."""
        for name in switch_names:
            self.stage(name, FlowDelete(cookie=cookie))

    def stage_delta(
        self,
        old_mods: Mapping[str, Iterable[FlowMod]],
        new_mods: Mapping[str, Iterable[FlowMod | ModifyRun]],
    ) -> DeltaStats:
        """Stage only the difference between two rule generations.

        For each switch, entries present in both generations are left
        untouched on the hardware; entries only in ``new_mods`` are
        staged as installs, entries only in ``old_mods`` as strict
        deletes (table + priority + match + cookie). Fresh installs are
        staged before any delete, so the per-switch discipline is
        make-before-break with a transient peak of ``steady state +
        additions`` — O(changed rules), not O(topology).

        A *modified* rule — same switch identity (table, priority,
        match, cookie) in both generations but different instructions —
        is the one exception: its strict delete cannot tell the old
        entry from the new one, so its delete is staged immediately
        *before* its install (a per-entry break-before-make; OpenFlow
        has OFPFC_MODIFY for this, which this channel does not model).

        ``new_mods`` may also hold :class:`ModifyRun` messages: rules
        the caller already knows to be modified (their old forms are
        left out of ``old_mods``), whose identities no other rule of
        either generation on that switch holds. Each is staged as it is,
        at its place among the modified rules — in ``new_mods`` order —
        and counted as the installs, deletes and modifications it stands
        for; no FlowMod of it is built.

        Each generation must be duplicate-free per switch under that
        identity (rule synthesis guarantees this: matches are keyed by
        port or by (metadata, dst, vc)); a duplicate would make a
        strict delete ambiguous, so it is rejected.
        """
        self._check_open()

        def identity(m: FlowMod) -> tuple:
            return (m.table_id, m.priority, m.match, m.cookie)

        installs = deletes = unchanged = n_modified = 0
        # staging order is commit and rollback order: first-seen switch
        # order, never a set's (which follows the string-hash seed)
        for name in dict.fromkeys([*old_mods, *new_mods]):
            old_list = list(old_mods.get(name, ()))
            in_order = list(new_mods.get(name, ()))
            runs = [m for m in in_order if isinstance(m, ModifyRun)]
            new_list = (
                [m for m in in_order if not isinstance(m, ModifyRun)]
                if runs else in_order
            )
            known = sum(len(run.entries) for run in runs)
            old_keys = {identity(m) for m in old_list}
            new_keys = {identity(m) for m in new_list}
            if (
                len(old_keys) != len(old_list)
                or len(new_keys) != len(new_list)
            ):
                raise TransactionError(
                    f"{self._tag}: duplicate rules on {name!r} make a "
                    "delta ambiguous; stage full generations instead"
                )
            old_set, new_set = set(old_list), set(new_list)
            added = [m for m in new_list if m not in old_set]
            removed = [m for m in old_list if m not in new_set]
            unchanged += len(old_list) - len(removed)
            installs += len(added) + known
            deletes += len(removed) + known

            removed_keys = {identity(m) for m in removed}
            fresh = [m for m in added if identity(m) not in removed_keys]
            modified = [m for m in added if identity(m) in removed_keys]
            modified_keys = {identity(m) for m in modified}
            n_modified += len(modified) + known

            def strict_delete(m: FlowMod) -> FlowDelete:
                return FlowDelete(
                    cookie=m.cookie,
                    table_id=m.table_id,
                    priority=m.priority,
                    match=m.match,
                )

            self.stage(name, *fresh)
            if runs:
                # the known modifications take their place among the
                # others, in new_mods order
                chosen = set(map(id, modified))
                modified = [
                    m for m in in_order
                    if isinstance(m, ModifyRun) or id(m) in chosen
                ]
            for mod in modified:
                if isinstance(mod, ModifyRun):
                    self.stage(name, mod)
                else:
                    # a strict delete is built from the identity alone,
                    # and the old entry shares this mod's
                    self.stage(name, strict_delete(mod), mod)
            self.stage(
                name,
                *(
                    strict_delete(m)
                    for m in removed
                    if identity(m) not in modified_keys
                ),
            )
        return DeltaStats(
            installs=installs,
            deletes=deletes,
            unchanged=unchanged,
            modified=n_modified,
        )

    @property
    def touched_switches(self) -> tuple[str, ...]:
        return tuple(n for n, msgs in self._ops.items() if msgs)

    # --- validation ---------------------------------------------------
    def peak_entry_counts(self) -> dict[str, int]:
        """Worst-case installed-entry count per switch while the staged
        batch applies, walking messages in staging order.

        This is an exact multiset simulation over entry identities
        (table, priority, match, cookie): a delete — wildcard, cookie,
        or strict — subtracts precisely the entries it would remove at
        that point in the batch, including ones staged earlier in the
        same transaction. Unchanged live entries that the batch never
        touches are counted once, never re-counted — a delta batch's
        peak is ``steady state + additions``, not ``2x steady state``.

        Only a batch that mixes strict deletes with looser ones, or
        deletes by priority or match alone, has the switch's whole
        multiset expanded. Install-only batches and delta batches
        (installs plus fully-strict deletes) start from ``num_entries``
        and look up just the identities their deletes name; swaps and
        evictions (installs plus deletes by table and cookie at most)
        are priced from per-(table, cookie) counts.
        """
        peaks: dict[str, int] = {}
        for name, msgs in self._ops.items():
            switch = self.control.channel(name).switch
            installs, deletes = self._staged[name]
            flow_deletes = [m for m in msgs if isinstance(m, FlowDelete)]
            if not deletes:
                # install-only batch (cold deploys): the count only ever
                # grows, so the peak is just steady state + rows staged —
                # no need to simulate the entry multiset (or to build a
                # staged run's FlowMods) at all
                peaks[name] = switch.num_entries + installs
            elif all(msg.strict for msg in flow_deletes):
                # a ModifyRun's deletes are strict too
                peaks[name] = self._strict_peak(switch, msgs)
            elif len(flow_deletes) == deletes and all(
                msg.priority is None and msg.match is None
                for msg in flow_deletes
            ):
                peaks[name] = self._cookie_peak(switch, msgs)
            else:
                peaks[name] = self._simulated_peak(switch, msgs)
        return peaks

    @staticmethod
    def _cookie_peak(switch, msgs: list[StagedMessage]) -> int:
        """The peak of a batch whose deletes filter on table and cookie
        at most (a cookie delete, a table or switch wipe).

        Such a delete takes every entry of the (table, cookie) pairs it
        selects, so entries per pair are all the walk needs: the tables'
        :meth:`~FlowTable.cookie_counts` and a staged run's row counts
        per part. No entry is built or listed, and no FlowMod."""
        counts: dict[tuple[int, int], int] = {}
        for tid, table in enumerate(switch.tables):
            for cookie, n in table.cookie_counts().items():
                counts[tid, cookie] = n
        count = peak = switch.num_entries
        for msg in msgs:
            if isinstance(msg, FlowDelete):
                for key in [
                    key for key in counts
                    if (msg.table_id is None or key[0] == msg.table_id)
                    and (msg.cookie is None or key[1] == msg.cookie)
                ]:
                    count -= counts.pop(key)
                continue
            if isinstance(msg, FlowModRun):
                for rows in msg.pending_rows():
                    for n, cookie, _build in rows.parts:
                        key = (rows.table_id, cookie)
                        counts[key] = counts.get(key, 0) + n
                        count += n
            else:
                key = (msg.table_id, msg.cookie)
                counts[key] = counts.get(key, 0) + 1
                count += 1
            peak = max(peak, count)
        return peak

    @staticmethod
    def _strict_peak(switch, msgs: list[StagedMessage]) -> int:
        """The peak of a batch whose deletes are all fully strict.

        A strict delete names one identity and takes its entries: the
        ones this batch staged so far, plus — the first time the
        identity is deleted — the live ones, counted by the flow table
        the same way its strict remove finds them."""
        tables = switch.tables
        count = peak = switch.num_entries
        #: per identity, entries staged by this batch and not yet deleted
        staged: dict[tuple, int] = {}
        #: identities whose live entries a delete already took
        cleared: set[tuple] = set()
        for item in msgs:
            if isinstance(item, ModifyRun):
                # per row, a delete of its identity then its install,
                # counted in the table by the row's own key
                tid = item.table_id
                table = tables[tid] if 0 <= tid < len(tables) else None
                for e, sk in zip(item.entries, item.keys):
                    key = (tid, e.priority, e.match, e.cookie)
                    removed = staged.get(key, 0)
                    if key not in cleared:
                        cleared.add(key)
                        if table is not None:
                            removed += table.count_strict(
                                match=e.match, priority=e.priority,
                                cookie=e.cookie, sk=sk,
                            )
                    staged[key] = 1
                    count += 1 - removed
                    if count > peak:
                        peak = count
                continue
            for msg in item if isinstance(item, FlowModRun) else (item,):
                key = (msg.table_id, msg.priority, msg.match, msg.cookie)
                if isinstance(msg, FlowMod):
                    staged[key] = staged.get(key, 0) + 1
                    count += 1
                    if count > peak:
                        peak = count
                    continue
                removed = staged.pop(key, 0)
                if key not in cleared:
                    cleared.add(key)
                    if 0 <= msg.table_id < len(tables):
                        removed += tables[msg.table_id].count_strict(
                            match=msg.match, priority=msg.priority,
                            cookie=msg.cookie,
                        )
                count -= removed
        return peak

    @classmethod
    def _simulated_peak(cls, switch, msgs: list[StagedMessage]) -> int:
        """The peak of any batch, by simulating the switch's whole
        entry multiset."""
        entries: dict[tuple, int] = {}
        for key in switch.entry_keys():
            entries[key] = entries.get(key, 0) + 1
        count = sum(entries.values())
        peak = count
        for msg in flow_messages(msgs):
            if isinstance(msg, FlowMod):
                key = (msg.table_id, msg.priority, msg.match, msg.cookie)
                entries[key] = entries.get(key, 0) + 1
                count += 1
                if count > peak:
                    peak = count
            else:  # FlowDelete
                count -= cls._simulate_delete(entries, msg)
        return peak

    @staticmethod
    def _simulate_delete(entries: dict[tuple, int], msg: FlowDelete) -> int:
        """Apply ``msg`` to a simulated entry multiset; returns how many
        entries it removes (mirrors OpenFlowSwitch.remove_flows)."""
        if msg.strict:
            # fully-strict delete: the filter IS an entry identity, so
            # it maps to one multiset key (O(1), not a table scan —
            # delta batches stage hundreds of these)
            return entries.pop(
                (msg.table_id, msg.priority, msg.match, msg.cookie), 0
            )
        removed = 0
        for key in list(entries):
            table_id, priority, match, cookie = key
            if msg.table_id is not None and table_id != msg.table_id:
                continue
            if msg.priority is not None and priority != msg.priority:
                continue
            if msg.match is not None and match != msg.match:
                continue
            if msg.cookie is not None and cookie != msg.cookie:
                continue
            removed += entries.pop(key)
        return removed

    def validate(self) -> None:
        """Run every check a commit would run, without committing."""
        problems = []
        for name, peak in sorted(self.peak_entry_counts().items()):
            capacity = self.control.channel(name).switch.flow_table_capacity
            if peak > capacity:
                problems.append(
                    f"{name}: batch peaks at {peak} entries, "
                    f"capacity {capacity}"
                )
        if problems:
            raise CapacityError(
                f"{self._tag}: would overflow flow tables: "
                + "; ".join(problems)
            )

    # --- commit / rollback --------------------------------------------
    def commit(self) -> float:
        """Validate, then apply every staged batch with a trailing
        barrier per switch. Returns the modeled commit time (max over
        touched channels — installs proceed in parallel). On any
        failure, rolls every already-touched switch back to its
        pre-transaction snapshot and raises :class:`TransactionError`
        (validation failures raise before hardware is touched)."""
        self._check_open()
        touched = self.touched_switches
        n_mods = sum(installs for installs, _ in self._staged.values())
        n_deletes = sum(deletes for _, deletes in self._staged.values())
        reg = metrics.registry()
        with trace.span(
            "txn.commit",
            label=self.label,
            switches=len(touched),
            flow_mods=n_mods,
            flow_deletes=n_deletes,
        ) as sp:
            try:
                with trace.span("txn.validate", label=self.label):
                    self.validate()
            except Exception:
                # vetoed before hardware was touched: no rollback needed
                reg.counter("sdt_txn_commits_total").inc(1, status="rejected")
                raise
            # write-ahead intent: journaled after validation, before the
            # first message reaches a switch. A crash from here until
            # the commit record lands leaves an unresolved intent, which
            # replay skips — see repro.recovery.journal (imported lazily:
            # its codec walks back into repro.openflow)
            from repro.recovery.journal import active_journal

            journal = active_journal()
            txn_lsn = (
                journal.append_intent(self.label, self._ops)
                if journal is not None and touched
                else None
            )
            before = {
                n: self.control.channel(n).stats.modeled_time for n in touched
            }
            snapshots: dict[str, SwitchSnapshot] = {}
            current = None
            try:
                for name in touched:
                    current = name
                    channel = self.control.channel(name)
                    snapshots[name] = channel.snapshot_rules()
                    # the switch's staged list is one channel call and
                    # one switch pass; message by message only under an
                    # armed fault
                    channel.send_batch(flow_messages(self._ops[name]))
                    channel.send(BarrierRequest())
            except Exception as exc:
                with trace.span("txn.rollback", label=self.label) as rb:
                    report = self._rollback(snapshots)
                    rb.set("switches", list(report.switches_rolled_back))
                    rb.set("entries_restored", report.entries_restored)
                    rb.set("entries_reverted", report.entries_reverted)
                    rb.set("modeled_time", report.modeled_time)
                if txn_lsn is not None:
                    # rollback completed: the intent is resolved as
                    # aborted, so replay never applies it
                    journal.append_abort(txn_lsn, reason=str(exc))
                reg.counter("sdt_txn_commits_total").inc(1, status="failed")
                reg.counter("sdt_txn_rollbacks_total").inc()
                reg.counter("sdt_txn_rollback_entries_total").inc(
                    report.entries_restored
                )
                raise TransactionError(
                    f"{self._tag}: commit failed at {current}: {exc}; rolled "
                    f"back {len(report.switches_rolled_back)} switch(es)",
                    rollback=report,
                ) from exc
            if txn_lsn is not None:
                # every barrier returned: the transaction is durable
                journal.append_commit(txn_lsn)
            self._committed = True
            # each switch's share of the commit: installs proceed in
            # parallel, so the commit takes as long as its straggler
            switch_times = {
                n: self.control.channel(n).stats.modeled_time - before[n]
                for n in touched
            }
            elapsed = max(switch_times.values(), default=0.0)
            sp.set("switch_times", switch_times)
            sp.set("modeled_time", elapsed)
            reg.counter("sdt_txn_commits_total").inc(1, status="ok")
            reg.counter("sdt_txn_rules_installed_total").inc(n_mods)
            reg.counter("sdt_txn_flow_deletes_total").inc(n_deletes)
            return elapsed

    def _rollback(self, snapshots: dict[str, SwitchSnapshot]) -> RollbackReport:
        restored_entries = 0
        reverted_entries = 0
        elapsed = 0.0
        names = []
        for name, snap in reversed(list(snapshots.items())):
            channel = self.control.channel(name)
            # identity diff BEFORE restoring: snapshot and table share
            # entry objects, so ids separate what the failed commit
            # installed (live, not in snap — includes a partially
            # applied batch's prefix) from what it deleted (in snap,
            # no longer live)
            snap_ids = {id(e) for tbl in snap.tables for e in tbl}
            live_ids = {
                id(e)
                for table in channel.switch.tables
                for e in table.snapshot()
            }
            reverted_entries += len(live_ids - snap_ids)
            reverted_entries += len(snap_ids - live_ids)
            elapsed = max(elapsed, channel.restore_rules(snap))
            restored_entries += snap.num_entries
            names.append(name)
        return RollbackReport(
            switches_rolled_back=tuple(names),
            entries_restored=restored_entries,
            modeled_time=elapsed,
            entries_reverted=reverted_entries,
        )

    # --- plumbing -----------------------------------------------------
    @property
    def _tag(self) -> str:
        return f"transaction {self.label!r}" if self.label else "transaction"

    def _check_open(self) -> None:
        if self._committed:
            raise TransactionError(f"{self._tag} already committed")
