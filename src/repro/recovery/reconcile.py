"""Switch-state reconciliation: audit hardware against intent, repair.

After a crash+recovery (or operator meddling, or a switch reboot that
dropped rules), the controller's *intent* — the union of its live
deployments' synthesized rule sets — may no longer match what the
switches actually hold. :func:`reconcile` audits every switch's
:meth:`~repro.openflow.switch.OpenFlowSwitch.installed_rules` against
intent and repairs three kinds of drift inside one ordinary
:class:`~repro.openflow.transaction.ControlTransaction`:

* **missing** — an intended rule absent from hardware: re-installed;
* **orphaned** — a hardware rule no live deployment owns: strict-
  deleted (table + priority + match + cookie);
* **modified** — same identity but different instructions: delete
  staged immediately before the reinstall (``stage_delta``'s
  per-entry break-before-make).

Because the repair is a normal transaction it inherits every
guarantee: capacity validation before hardware, barriers, snapshot
rollback on failure. The repair is staged inside a
``reconcile.audit`` span — the drift counts are read off what
``stage_delta`` staged, so a dry run stages too and never commits — and
commits inside the controller's
:meth:`~repro.core.controller.controller.SDTController.mutation`
frame, so it is traced (``controller.reconcile``) and counted
(``op="reconcile"``) by the same epilogue as every other mutation. A
clean audit stages nothing and touches no switch.

Deployments with installed flow overrides are excluded from the audit
(their override rules share the deployment cookie but live outside
``rules``, so auditing them would strict-delete legitimate state);
their cookies are reported as skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.openflow.channel import FlowDelete, FlowMod
from repro.openflow.transaction import ControlTransaction
from repro.telemetry import metrics, trace


def _identity(m: FlowMod) -> tuple:
    return (m.table_id, m.priority, m.match, m.cookie)


@dataclass(frozen=True)
class ReconcileReport:
    """What an audit found (and, unless dry-run, repaired)."""

    #: intended rules absent from hardware (re-installed)
    missing: int
    #: hardware rules no live deployment owns (strict-deleted)
    orphaned: int
    #: same identity, different instructions (deleted + reinstalled)
    modified: int
    #: duplicate-identity groups found on hardware and flushed
    duplicates: int
    #: cookies excluded from the audit (deployments with overrides)
    skipped_cookies: tuple[int, ...]
    #: switches that needed (or would need) repair
    drifted_switches: tuple[str, ...]
    #: modeled repair time (0.0 for a clean audit or dry run)
    modeled_time: float
    dry_run: bool

    @property
    def clean(self) -> bool:
        return not (self.missing or self.orphaned or self.modified
                    or self.duplicates)

    def summary(self) -> dict:
        return {
            "clean": self.clean,
            "missing": self.missing,
            "orphaned": self.orphaned,
            "modified": self.modified,
            "duplicates": self.duplicates,
            "skipped_cookies": list(self.skipped_cookies),
            "drifted_switches": list(self.drifted_switches),
            "modeled_time": self.modeled_time,
            "dry_run": self.dry_run,
        }


def reconcile(controller: Any, *, dry_run: bool = False) -> ReconcileReport:
    """Audit every switch against the controller's deployments and
    repair drift in one transaction. Returns the report; raises
    :class:`~repro.util.errors.TransactionError` if the repair commit
    itself fails (switches then roll back to their drifted-but-known
    state)."""
    skipped = tuple(sorted(
        d.cookie for d in controller.deployments if d.flow_overrides > 0
    ))
    skip = set(skipped)

    # intent: per-switch FlowMods from every auditable deployment
    intent: dict[str, list[FlowMod]] = {}
    for d in controller.deployments:
        if d.cookie in skip:
            continue
        for name, mods in d.rules.mods.items():
            intent.setdefault(name, []).extend(mods)

    # actual: per-switch FlowMods reconstructed from hardware
    actual: dict[str, list[FlowMod]] = {}
    dup_deletes: dict[str, list[FlowDelete]] = {}
    duplicates = 0
    for name, sw in controller.cluster.switches.items():
        mods: list[FlowMod] = []
        seen: dict[tuple, int] = {}
        for table_id, priority, match, instructions, cookie in (
            sw.installed_rules()
        ):
            if cookie in skip:
                continue
            m = FlowMod(
                table_id=table_id, priority=priority, match=match,
                instructions=instructions, cookie=cookie,
            )
            key = _identity(m)
            if key in seen:
                # duplicate identity on hardware: a strict delete is
                # ambiguous for stage_delta, so flush the whole group
                # up front (one strict delete removes every copy) and
                # let the diff re-install the intended rule
                if seen[key] == 1:
                    duplicates += 1
                    dup_deletes.setdefault(name, []).append(FlowDelete(
                        cookie=cookie, table_id=table_id,
                        priority=priority, match=match,
                    ))
                    mods = [x for x in mods if _identity(x) != key]
                seen[key] += 1
                continue
            seen[key] = 1
            mods.append(m)
        if mods:
            actual[name] = mods

    # stage the repair — the duplicate flush, then the diff to intent —
    # and read the drift off what the diff staged; a dry run stops here.
    # The audit span holds the staging, committed or not.
    with trace.span("reconcile.audit", dry_run=dry_run) as sp:
        txn = ControlTransaction(controller.cluster.control, label="reconcile")
        for name, deletes in sorted(dup_deletes.items()):
            txn.stage(name, *deletes)
        stats = txn.stage_delta(actual, intent)
        modified = stats.modified
        missing = stats.installs - modified
        orphaned = stats.deletes - modified
        for kind, n in (("missing", missing), ("orphaned", orphaned),
                        ("modified", modified), ("duplicates", duplicates)):
            sp.set(kind, n)

    clean = not (missing or orphaned or modified or duplicates)
    reg = metrics.registry()
    reg.counter("sdt_reconcile_runs_total").inc(
        1, result="clean" if clean else "drift"
    )
    reg.counter("sdt_reconcile_drift_total").inc(missing, kind="missing")
    reg.counter("sdt_reconcile_drift_total").inc(orphaned, kind="orphaned")
    reg.counter("sdt_reconcile_drift_total").inc(modified, kind="modified")

    elapsed = 0.0
    if not clean and not dry_run:
        with controller.mutation(
            "reconcile", drift=missing + orphaned + modified + duplicates
        ) as m:
            m.commit_time = txn.commit()
        elapsed = m.modeled_time
    return ReconcileReport(
        missing=missing,
        orphaned=orphaned,
        modified=modified,
        duplicates=duplicates,
        skipped_cookies=skipped,
        drifted_switches=tuple(sorted(txn.touched_switches)),
        modeled_time=elapsed,
        dry_run=dry_run,
    )
