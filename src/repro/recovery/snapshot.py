"""Controller snapshots and crash recovery (snapshot + journal replay).

A snapshot is a full JSON serialization of the controller's durable
state: per-switch flow tables and groups, per-deployment metadata
(cookie, failed links, override count, topology), tenancy sessions,
and the cookie/metadata allocation counters. Snapshots bound replay:
recovery loads the newest snapshot, then applies only the journal's
*committed* intents with LSNs past the snapshot frontier
(:func:`repro.recovery.journal.committed_ops`), so replay time scales
with the journal length since the last snapshot, not with history.

Replay happens in **record space** — plain encoded-entry lists that
mirror :class:`~repro.openflow.flowtable.FlowTable` semantics (append
for a FlowMod, filter-by-every-non-None-field for a FlowDelete) —
and is only materialized onto switches at the end, via
:meth:`~repro.openflow.switch.OpenFlowSwitch.restore`. Entry order is
preserved end to end (snapshot order, then replay-append order), and
``FlowTable.restore``'s stable priority sort re-derives exactly the
arrival-order tie-break a live run would have, which is what makes
recovered tables bit-identical to an uninterrupted run's.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.openflow.channel import FlowDelete, FlowMod
from repro.openflow.switch import SwitchSnapshot
from repro.recovery import codec
from repro.recovery.journal import JOURNAL_NAME, CommitJournal, committed_ops
from repro.telemetry.trace import tail_jsonl
from repro.util.errors import ReproError

SNAPSHOT_SCHEMA = 1
_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{8})\.json$")


def controller_state(
    controller: Any, sessions: Any = None, extra: dict | None = None
) -> dict:
    """Serialize a controller's durable state (JSON-safe).

    Duck-typed on purpose: anything with ``cluster`` / ``deployments``
    and the allocation counters serializes, which keeps this module
    import-independent of :mod:`repro.core.controller`. ``extra`` is
    merged into the top-level state — the control-plane service uses
    it for its own durable records (:mod:`repro.recovery.servicestate`).
    """
    switches = {}
    for name, sw in controller.cluster.switches.items():
        switches[name] = {
            "tables": [
                [codec.encode_entry(tid, e) for e in table.snapshot()]
                for tid, table in enumerate(sw.tables)
            ],
            "groups": [
                codec.encode_group(g) for _, g in sorted(sw.groups.items())
            ],
        }
    deployments = []
    for d in controller.deployments:
        topo = d.topology
        deployments.append({
            "name": topo.name,
            "cookie": d.cookie,
            "lossless": d.lossless,
            "deployment_time": d.deployment_time,
            "failed_links": sorted(d.failed_links),
            "flow_overrides": d.flow_overrides,
            "hybrid": d.hybrid_plan is not None,
            "metadata_base": min(
                (s.metadata_id for s in d.projection.subswitches.values()),
                default=0,
            ),
            "topology": {
                "switches": list(topo.switches),
                "hosts": list(topo.hosts),
                "links": [list(link.endpoints) for link in topo.links],
            },
        })
    state = {
        "schema": SNAPSHOT_SCHEMA,
        "seed": controller.seed,
        "placement": controller.placement,
        "next_cookie": controller._next_cookie,
        "next_metadata": controller._next_metadata,
        "last_commit_strategy": controller.last_commit_strategy,
        "switches": switches,
        "deployments": deployments,
    }
    if sessions is not None:
        state["sessions"] = [s.to_state() for s in sessions]
    if extra:
        state.update(extra)
    return state


class SnapshotManager:
    """Periodic snapshot writer for one state directory.

    ``every`` is the snapshot cadence in *committed transactions*:
    :meth:`maybe_write` consults the journal's commit counter and
    writes a snapshot once ``every`` commits have landed since the
    last one. Writes are atomic (temp file + ``os.replace``), so a
    crash mid-snapshot leaves the previous snapshot intact.
    """

    def __init__(self, state_dir: str | Path, *, every: int = 8) -> None:
        if every < 1:
            raise ReproError(f"snapshot cadence must be >= 1, got {every}")
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.every = every
        self._commits_at_last = 0

    def journal(self) -> CommitJournal:
        """Open (or create) this state directory's commit journal."""
        return CommitJournal(self.state_dir / JOURNAL_NAME)

    def write(
        self,
        controller: Any,
        journal: CommitJournal,
        sessions: Any = None,
        extra: dict | None = None,
    ) -> Path:
        """Write a snapshot stamped with the journal's current frontier
        (the highest LSN already on disk)."""
        lsn = len(journal) - 1
        state = dict(
            controller_state(controller, sessions=sessions, extra=extra)
        )
        state["lsn"] = lsn
        path = self.state_dir / f"snapshot-{max(lsn, 0):08d}.json"
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(state, sort_keys=True))
        os.replace(tmp, path)
        self._commits_at_last = journal.commits_total
        return path

    def maybe_write(
        self,
        controller: Any,
        journal: CommitJournal,
        sessions: Any = None,
        extra: dict | None = None,
    ) -> Path | None:
        """Write a snapshot if ``every`` commits landed since the last
        one; returns the path when a snapshot was written."""
        if journal.commits_total - self._commits_at_last < self.every:
            return None
        return self.write(controller, journal, sessions=sessions, extra=extra)


def latest_snapshot(state_dir: str | Path) -> tuple[dict, int] | None:
    """The newest complete snapshot in ``state_dir`` as ``(state,
    lsn)``, or None when the directory holds no snapshot."""
    state_dir = Path(state_dir)
    if not state_dir.is_dir():
        return None
    best: Path | None = None
    for p in state_dir.iterdir():
        if _SNAPSHOT_RE.match(p.name):
            if best is None or p.name > best.name:
                best = p
    if best is None:
        return None
    state = json.loads(best.read_text())
    return state, int(state.get("lsn", -1))


@dataclass
class RecoveryResult:
    """What :func:`recover` reconstructed, and from how much input."""

    #: journal frontier of the snapshot replay started from (-1: none)
    snapshot_lsn: int
    #: complete journal records read (intents + commits + aborts)
    journal_records: int
    #: committed intents applied past the snapshot frontier
    replayed: int
    #: intents *not* applied: aborted, unresolved (crashed mid-commit),
    #: or already inside the snapshot
    skipped: int
    #: flow entries in the recovered state, total and per switch
    entries: int
    per_switch: dict[str, int] = field(default_factory=dict)
    #: the full record-space controller state (snapshot schema)
    state: dict = field(default_factory=dict)

    def summary(self) -> dict:
        """JSON-safe roll-up (the ``repro recover`` output)."""
        return {
            "snapshot_lsn": self.snapshot_lsn,
            "journal_records": self.journal_records,
            "replayed": self.replayed,
            "skipped": self.skipped,
            "entries": self.entries,
            "per_switch": dict(sorted(self.per_switch.items())),
            "deployments": [
                d["name"] for d in self.state.get("deployments", [])
            ],
        }


def _apply_message(
    tables: dict[str, list[list[dict]]],
    switch: str,
    msg: FlowMod | FlowDelete,
    num_tables: int,
) -> None:
    """Mirror FlowTable semantics in record space."""
    per_table = tables.setdefault(
        switch, [[] for _ in range(num_tables)]
    )
    if isinstance(msg, FlowMod):
        per_table[msg.table_id].append(
            codec.encode_entry(msg.table_id, msg)
        )
        return
    enc_match = None if msg.match is None else codec.encode_match(msg.match)
    for tid, entries in enumerate(per_table):
        if msg.table_id is not None and tid != msg.table_id:
            continue
        per_table[tid] = [
            e for e in entries
            if not (
                (msg.cookie is None or e["cookie"] == msg.cookie)
                and (msg.priority is None or e["priority"] == msg.priority)
                and (enc_match is None or e["match"] == enc_match)
            )
        ]


def load_recovery(
    state_dir: str | Path, *, num_tables: int = 4
) -> RecoveryResult:
    """Reconstruct the committed controller state in record space:
    newest snapshot as the base, then replay of every committed intent
    past its frontier, in LSN order. Pure — touches no switch."""
    state_dir = Path(state_dir)
    snap = latest_snapshot(state_dir)
    if snap is None:
        state: dict = {"schema": SNAPSHOT_SCHEMA, "switches": {},
                       "deployments": []}
        frontier = -1
    else:
        state, frontier = snap
    # record-space working set: switch -> [table -> [entry dicts]]
    tables: dict[str, list[list[dict]]] = {}
    for name, sw_state in state.get("switches", {}).items():
        tables[name] = [list(t) for t in sw_state["tables"]]
        while len(tables[name]) < num_tables:
            tables[name].append([])

    records, _ = tail_jsonl(state_dir / JOURNAL_NAME)
    to_replay = committed_ops(records, after_lsn=frontier)
    intents_total = sum(1 for r in records if r["type"] == "intent")
    for _lsn, _label, ops in to_replay:
        for switch, msgs in sorted(ops.items()):
            for msg in msgs:
                _apply_message(tables, switch, msg, num_tables)

    # fold the replayed tables back into the snapshot-shaped state
    switches_out = {}
    per_switch = {}
    total = 0
    for name in sorted(tables):
        groups = state.get("switches", {}).get(name, {}).get("groups", [])
        switches_out[name] = {"tables": tables[name], "groups": groups}
        n = sum(len(t) for t in tables[name])
        per_switch[name] = n
        total += n
    state = dict(state)
    state["switches"] = switches_out
    return RecoveryResult(
        snapshot_lsn=frontier,
        journal_records=len(records),
        replayed=len(to_replay),
        skipped=intents_total - len(to_replay),
        entries=total,
        per_switch=per_switch,
        state=state,
    )


def apply_recovery(result: RecoveryResult, cluster: Any) -> int:
    """Materialize a recovered state onto a cluster's switches via
    snapshot/restore (no control channel: recovery is not subject to
    fault injection, like transaction rollback). Switches absent from
    the recovered state are wiped. Returns entries installed."""
    installed = 0
    recovered = result.state.get("switches", {})
    for name, sw in cluster.switches.items():
        sw_state = recovered.get(name)
        if sw_state is None:
            table_entries: list[tuple] = [() for _ in sw.tables]
            groups: list = []
        else:
            per_table: list[list] = [[] for _ in sw.tables]
            for tid, entries in enumerate(sw_state["tables"]):
                for rec in entries:
                    _tid, entry = codec.decode_entry(rec)
                    per_table[tid].append(entry)
            table_entries = [tuple(t) for t in per_table]
            groups = [codec.decode_group(g) for g in sw_state["groups"]]
        snap = SwitchSnapshot(
            dpid=sw.dpid,
            tables=tuple(table_entries),
            groups=tuple((g.group_id, g) for g in groups),
        )
        installed += sw.restore(snap)
    return installed


def recover(
    state_dir: str | Path,
    *,
    cluster: Any = None,
    controller: Any = None,
    sessions: Any = None,
) -> RecoveryResult:
    """Full crash recovery: load snapshot + replay journal, then (when
    given a cluster and/or controller) materialize the result.

    * ``cluster`` — switches are restored to the recovered rule state.
    * ``controller`` — allocation counters (``_next_cookie``,
      ``_next_metadata``) and ``last_commit_strategy`` are restored so
      the recovered controller can keep minting without colliding with
      pre-crash cookies. Deployment *objects* are not rebuilt (their
      rules live on the switches; re-adoption is a prepare-level
      concern) — the snapshot records them by name for the operator.
    * ``sessions`` — a mutable list; refilled with
      :class:`~repro.tenancy.session.TenantSession` objects rebuilt
      from the snapshot (cookie counters preserved).
    """
    num_tables = 4
    if cluster is not None and cluster.switches:
        num_tables = max(
            len(sw.tables) for sw in cluster.switches.values()
        )
    result = load_recovery(state_dir, num_tables=num_tables)
    if cluster is not None:
        apply_recovery(result, cluster)
    if controller is not None:
        state = result.state
        if "next_cookie" in state:
            controller._next_cookie = state["next_cookie"]
            controller._next_metadata = state["next_metadata"]
            controller.last_commit_strategy = state.get(
                "last_commit_strategy", ""
            )
        # the snapshot's counters are stale by however many commits the
        # replay applied (route swaps mint cookies, deploys consume
        # metadata ids). Re-minting a value that already tags a replayed
        # rule would break cookie-disjointness / metadata isolation, so
        # advance both counters past everything visible in the
        # recovered rule state
        max_cookie = -1
        max_meta = -1
        from repro.tenancy.session import TENANT_COOKIE_SPACE

        for sw_state in state.get("switches", {}).values():
            for table in sw_state["tables"]:
                for rec in table:
                    if rec["cookie"] < TENANT_COOKIE_SPACE:
                        max_cookie = max(max_cookie, rec["cookie"])
                    meta = rec["match"][1]  # Match.metadata
                    if meta is not None:
                        max_meta = max(max_meta, meta)
                    for ins in rec["instructions"]:
                        if ins[0] == "meta":
                            max_meta = max(max_meta, ins[1])
        controller._next_cookie = max(
            controller._next_cookie, max_cookie + 1
        )
        controller._next_metadata = max(
            controller._next_metadata, max_meta + 1
        )
    if sessions is not None:
        from repro.tenancy.session import TenantSession

        sessions.clear()
        for s in result.state.get("sessions", []):
            sessions.append(TenantSession.from_state(s))
    return result
