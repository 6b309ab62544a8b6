"""Durability & recovery: crash-safe snapshots, journal replay and
switch-state reconciliation (DESIGN.md §7).

The durable-controller story has two legs:

* **journal** (:mod:`repro.recovery.journal`) — a write-ahead commit
  journal hooked into every ``ControlTransaction``: intent before
  hardware, commit after barriers, abort after rollback. Install one
  with :func:`install_journal` and every commit becomes durable.
* **snapshots + replay** (:mod:`repro.recovery.snapshot`) — periodic
  full-state snapshots bound the journal replay; :func:`recover`
  rebuilds a crashed controller's switch state from snapshot +
  committed intents. :class:`JournalReplay` is the one journal reader:
  polled once it is a cold restart, polled again it is a warm follower.

Plus :mod:`repro.recovery.reconcile`: audit live ``FlowTable``
contents against controller intent and repair drift inside a normal
transaction.

The journal/codec layer is imported eagerly (it sits *below* the
transaction layer); snapshot/reconcile touch the controller
and are re-exported lazily to keep import edges acyclic.
"""

from __future__ import annotations

from typing import Any

from repro.recovery.journal import (
    JOURNAL_NAME,
    CommitJournal,
    active_journal,
    install_journal,
    uninstall_journal,
)

__all__ = [
    "JOURNAL_NAME",
    "CommitJournal",
    "JournalReplay",
    "RecoveryResult",
    "ReconcileReport",
    "SnapshotManager",
    "active_journal",
    "apply_recovery",
    "controller_state",
    "install_journal",
    "latest_snapshot",
    "load_recovery",
    "recover",
    "recover_service",
    "reconcile",
    "service_extra",
    "uninstall_journal",
]

_LAZY = {
    "SnapshotManager": "repro.recovery.snapshot",
    "JournalReplay": "repro.recovery.snapshot",
    "RecoveryResult": "repro.recovery.snapshot",
    "controller_state": "repro.recovery.snapshot",
    "latest_snapshot": "repro.recovery.snapshot",
    "load_recovery": "repro.recovery.snapshot",
    "apply_recovery": "repro.recovery.snapshot",
    "recover": "repro.recovery.snapshot",
    "ReconcileReport": "repro.recovery.reconcile",
    "reconcile": "repro.recovery.reconcile",
    "recover_service": "repro.recovery.servicestate",
    "service_extra": "repro.recovery.servicestate",
}


def __getattr__(name: str) -> Any:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)
