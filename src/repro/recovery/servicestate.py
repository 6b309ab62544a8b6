"""Durable service-state records for the control-plane service.

The long-running service (DESIGN.md §8) persists through the same
snapshot + journal path the controller uses (§7): flow-table state and
tenant sessions ride in the snapshot, every session open or end since
the snapshot is a journal ``session`` record that replay folds in, and
this module adds the *service-level* record — currently the
session-index counter (each session record carries it too), the one
piece of state that lives in :class:`~repro.tenancy.service.
TestbedService` rather than in the controller or any session. Losing
it across a restart would be a correctness bug: a fresh service would
restart index allocation at the max *live* index + 1, which is safe,
but recording the counter explicitly also protects the invariant when
every session closed before the crash (closed sessions may be pruned
from snapshots, yet their cookie blocks must never be re-granted).

``service_extra`` produces the record for
:meth:`~repro.recovery.snapshot.SnapshotManager.write`'s ``extra``
parameter; ``recover_service`` is the one-call restart path: rebuild
rule state, allocation counters, and tenant sessions into a fresh
:class:`~repro.tenancy.service.TestbedService` on an equivalent pool.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.recovery.snapshot import RecoveryResult, recover

SERVICE_STATE_SCHEMA = 1


def service_extra(service: Any) -> dict:
    """The service-level snapshot record (pass as snapshot ``extra``)."""
    return {
        "service": {
            "schema": SERVICE_STATE_SCHEMA,
            "next_index": service._next_index,
        }
    }


def recover_service(
    state_dir: str | Path, service: Any
) -> RecoveryResult:
    """Recover a crashed control-plane service into ``service``.

    ``service`` is a freshly built :class:`~repro.tenancy.service.
    TestbedService` on a pool wired like the crashed one. Three layers
    come back:

    * switch rule state — bit-identical committed flow tables via
      snapshot + journal replay (:func:`repro.recovery.recover`);
    * controller counters — cookie/metadata allocators advanced past
      everything visible in the recovered rules;
    * tenant sessions — leases, cookie-block indices and per-session
      cookie counters from the snapshot and the session records past
      it, adopted with the service's index counter resumed from the
      service record (or past every adopted index).

    Deployment *objects* are not rebuilt (PR 7's contract): their
    rules are live on the switches and re-adoption is a prepare-level
    concern. The returned result carries the raw recovered state.
    """
    sessions: list = []
    result = recover(
        state_dir,
        cluster=service.cluster,
        controller=service.controller,
        sessions=sessions,
    )
    record = result.state.get("service", {})
    next_index = record.get("next_index")
    service.adopt_sessions(
        sessions,
        next_index=int(next_index) if next_index is not None else None,
    )
    return result
