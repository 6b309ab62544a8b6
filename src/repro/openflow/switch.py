"""The emulated OpenFlow switch data plane.

Ports are numbered ``1..num_ports`` like real hardware. The pipeline
starts at table 0; each lookup may write metadata, apply actions and
jump to a strictly later table (OpenFlow 1.3 semantics). A table miss
drops the packet — SDT relies on that default-deny for sub-switch
isolation (§VI-B's Wireshark experiment).

The switch enforces a total flow-entry budget across tables, modeling
the TCAM limit that §VII-C identifies as SDT's scarcest resource.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from repro.openflow.actions import (
    ApplyActions,
    Drop,
    GotoTable,
    Group,
    Output,
    SetQueue,
    SetVC,
    WriteMetadata,
)
from repro.openflow.groups import GroupEntry
from repro.openflow.flowtable import (
    FlowEntry,
    FlowTable,
    RowBuilder,
    remove_from_tables,
)
from repro.openflow.match import Match, PacketHeader
from repro.telemetry import metrics, trace
from repro.util.errors import CapacityError, SimulationError


@dataclass(frozen=True)
class ForwardDecision:
    """Result of running a packet through the pipeline."""

    out_ports: tuple[int, ...]  # empty = dropped
    queue: int = 0
    vc: int | None = None  # rewritten VC, if any
    matched_tables: tuple[int, ...] = ()

    @property
    def dropped(self) -> bool:
        return not self.out_ports


@dataclass
class PortStats:
    """Per-port counters (the Network Monitor polls these)."""

    rx_packets: int = 0
    tx_packets: int = 0
    rx_bytes: int = 0
    tx_bytes: int = 0


@dataclass(frozen=True)
class SwitchSnapshot:
    """A switch's complete rule state at one instant: per-table entry
    tuples plus the group table. Restoring a snapshot makes the switch's
    flow tables identical (same entry objects, same order) to when it
    was taken — the unit of control-plane transaction rollback."""

    dpid: str
    tables: tuple[tuple[FlowEntry, ...], ...]
    groups: tuple[tuple[int, GroupEntry], ...]

    @property
    def num_entries(self) -> int:
        return sum(len(t) for t in self.tables)


class PendingRows(NamedTuple):
    """The rows one bulk install adds to one table, not yet built, with
    what the switch validates before accepting them."""

    table_id: int
    #: ``(rows, cookie, build)`` per part, in install order, as
    #: :meth:`FlowTable.add_pending` takes them
    parts: list[tuple[int, int, RowBuilder]]
    #: every distinct instruction tuple among the rows (repeats
    #: allowed): the switch validates each once, not once per entry
    instructions: list[tuple]


class FlowModRun(ABC):
    """A run of FlowMod installs for one switch, staged and sent as one
    message that stands for all of them.

    Whoever compiled the rules (``repro.core.rules.RuleSet``) knows
    them in bulk — columns, not messages — and subclasses this so the
    control plane can carry that form to the switch without this
    package knowing how rules are compiled. ``len()`` is the number of
    FlowMods; iterating yields them in order, building them if need be,
    for every consumer that works per message; :meth:`pending_rows` is
    the same run as :meth:`OpenFlowSwitch.add_flow_batch` installs it.
    """

    __slots__ = ()

    @abstractmethod
    def __len__(self) -> int: ...

    @abstractmethod
    def __iter__(self) -> Iterator: ...

    @abstractmethod
    def pending_rows(self) -> list[PendingRows]:
        """The run per table, unbuilt. Within a table the parts' rows
        come in the run's message order — so the serials they reserve
        and their equal-priority tie-breaks equal the per-message
        install's — and their counts add up to ``len()``."""


class OpenFlowSwitch:
    """An emulated multi-table OpenFlow switch."""

    def __init__(
        self,
        dpid: str,
        num_ports: int,
        *,
        num_tables: int = 4,
        flow_table_capacity: int = 4096,
    ) -> None:
        if num_ports < 1:
            raise ValueError(f"switch needs >= 1 port, got {num_ports}")
        if num_tables < 1:
            raise ValueError(f"switch needs >= 1 table, got {num_tables}")
        self.dpid = dpid
        self.num_ports = num_ports
        self.flow_table_capacity = flow_table_capacity
        self.tables = [FlowTable(i) for i in range(num_tables)]
        # one mutation-epoch cell for all tables: any membership change,
        # however it reaches a table, shows as one changed integer
        self._epoch = [0]
        for table in self.tables:
            table._epoch = self._epoch
        # forwarding memo: (in_port, header) -> (decision, entries hit),
        # valid while the epoch equals ``_decisions_epoch``
        self._decisions: dict[
            tuple[int, PacketHeader],
            tuple[ForwardDecision, tuple[FlowEntry, ...]],
        ] = {}
        self._decisions_epoch = 0
        self.groups: dict[int, GroupEntry] = {}
        self.port_stats: dict[int, PortStats] = {
            p: PortStats() for p in range(1, num_ports + 1)
        }

    # --- control plane ------------------------------------------------
    @property
    def num_entries(self) -> int:
        return sum(len(t) for t in self.tables)

    @property
    def free_entries(self) -> int:
        return self.flow_table_capacity - self.num_entries

    def add_flow(
        self,
        table_id: int,
        priority: int,
        match: Match,
        instructions: tuple | list,
        *,
        cookie: int = 0,
    ) -> FlowEntry:
        """Install a flow entry; raises :class:`CapacityError` when the
        switch TCAM budget is exhausted (§VII-C)."""
        self._check_table(table_id)
        self._check_instructions(table_id, instructions)
        if self.num_entries >= self.flow_table_capacity:
            raise CapacityError(
                f"switch {self.dpid}: flow table full "
                f"({self.flow_table_capacity} entries)"
            )
        entry = FlowEntry(priority, match, tuple(instructions), cookie=cookie)
        self.tables[table_id].add(entry)
        if trace.enabled():
            self._publish_occupancy()
        return entry

    def add_flow_batch(self, mods) -> None:
        """Install a batch of FlowMod-shaped messages (anything with
        ``table_id``/``priority``/``match``/``instructions``/``cookie``)
        in order, amortizing validation and capacity checks across the
        batch.

        Semantics match a sequential :meth:`add_flow` loop exactly: if
        the TCAM budget runs out mid-batch, every entry *before* the
        overflowing one is installed and :class:`CapacityError` is
        raised for the first that does not fit — the per-message
        behavior transactions rely on for rollback accounting.

        A :class:`FlowModRun` that fits is installed from its
        :meth:`~FlowModRun.pending_rows` without a FlowMod or a flow
        entry being built: capacity is checked once for the run, table
        ids once per table and each distinct instruction tuple once,
        then each table holds its rows pending
        (:meth:`FlowTable.add_pending`) until a reader needs them. The
        tables read exactly as the per-message install leaves them. A
        run that would overflow is expanded and takes the per-message
        path, which installs the exact prefix.
        """
        if isinstance(mods, FlowModRun) and len(mods) <= self.free_entries:
            tables = mods.pending_rows()
            # like the loop below, validate everything before any
            # table changes
            for rows in tables:
                self._check_table(rows.table_id)
                for instructions in rows.instructions:
                    self._check_instructions(rows.table_id, instructions)
            for rows in tables:
                self.tables[rows.table_id].add_pending(rows.parts)
            if trace.enabled():
                self._publish_occupancy()
            return
        mods = list(mods)
        free = self.flow_table_capacity - self.num_entries
        overflow = len(mods) > free
        if overflow:
            mods, rejected = mods[:free], mods[free:]
        by_table: dict[int, list[FlowEntry]] = {}
        # synthesis pools instruction tuples, so batches repeat a small
        # set of (table, instructions) combinations — validate each
        # distinct one once per batch, keyed by identity (the mods list
        # pins the tuples, so ids are stable for the loop's duration)
        checked: set[tuple[int, int]] = set()
        for m in mods:
            tid = m.table_id
            ck = (tid, id(m.instructions))
            if ck not in checked:
                self._check_table(tid)
                self._check_instructions(tid, m.instructions)
                checked.add(ck)
            by_table.setdefault(tid, []).append(FlowEntry(
                m.priority, m.match, tuple(m.instructions), cookie=m.cookie
            ))
        for table_id, batch in by_table.items():
            self.tables[table_id].add_batch(batch)
        if trace.enabled():
            self._publish_occupancy()
        if overflow:
            # validate the doomed message too, so a bad mod is still
            # reported as such rather than masked by the full table
            self._check_table(rejected[0].table_id)
            self._check_instructions(
                rejected[0].table_id, rejected[0].instructions
            )
            raise CapacityError(
                f"switch {self.dpid}: flow table full "
                f"({self.flow_table_capacity} entries)"
            )

    def _publish_occupancy(self) -> None:
        metrics.registry().gauge("sdt_switch_table_entries").set(
            self.num_entries, switch=self.dpid
        )

    def add_group(self, entry: GroupEntry) -> None:
        """Install (or replace) a group-table entry."""
        for port in entry.output_ports():
            if not 1 <= port <= self.num_ports:
                raise SimulationError(
                    f"switch {self.dpid}: group {entry.group_id} outputs "
                    f"to bad port {port}"
                )
        self.groups[entry.group_id] = entry

    def remove_group(self, group_id: int) -> bool:
        return self.groups.pop(group_id, None) is not None

    def remove_flows(
        self,
        *,
        cookie: int | None = None,
        table_id: int | None = None,
        priority: int | None = None,
        match: Match | None = None,
    ) -> int:
        """Remove entries matching every given filter across the
        selected table(s); all-``None`` wipes the switch. A fully
        specified (table, priority, match, cookie) filter is the
        OFPFC_DELETE_STRICT the incremental reconfigurer uses to retire
        individual stale rules."""
        removed = remove_from_tables(
            self.tables,
            cookie=cookie, table_id=table_id, priority=priority, match=match,
        )
        if removed and trace.enabled():
            self._publish_occupancy()
        return removed

    def count_entries(self, *, cookie: int | None = None) -> int:
        """Installed entries carrying ``cookie`` (None = all entries)."""
        if cookie is None:
            return self.num_entries
        return sum(t._cookies.get(cookie, 0) for t in self.tables)

    def occupancy_by_cookie(self) -> dict[int, int]:
        """Installed entries per cookie — the switch-side ledger of
        per-deployment (and, through cookie namespaces, per-tenant)
        TCAM consumption that admission control charges quotas against.
        Read off each table's maintained counts: nothing is walked."""
        counts: dict[int, int] = {}
        for t in self.tables:
            for cookie, n in t._cookies.items():
                counts[cookie] = counts.get(cookie, 0) + n
        return counts

    def entry_keys(self) -> list[tuple[int, int, Match, int]]:
        """Every installed entry as a (table, priority, match, cookie)
        identity tuple — the currency of transaction peak-capacity
        simulation and delta staging."""
        return [
            (tid, e.priority, e.match, e.cookie)
            for tid, t in enumerate(self.tables)
            for e in t
        ]

    def installed_rules(
        self,
    ) -> list[tuple[int, int, Match, tuple, int]]:
        """Every installed entry as a (table, priority, match,
        instructions, cookie) tuple — the full rule content, not just
        the identity key. This is what drift reconciliation audits
        against controller intent: two entries are "the same rule" only
        if all five fields agree."""
        return [
            (tid, e.priority, e.match, tuple(e.instructions), e.cookie)
            for tid, t in enumerate(self.tables)
            for e in t
        ]

    def snapshot(self) -> SwitchSnapshot:
        """Capture the full rule state for transaction rollback."""
        return SwitchSnapshot(
            dpid=self.dpid,
            tables=tuple(t.snapshot() for t in self.tables),
            groups=tuple(sorted(self.groups.items())),
        )

    def restore(self, snap: SwitchSnapshot) -> int:
        """Return the switch to a prior :meth:`snapshot`; returns the
        number of entries now installed (the reinstall cost)."""
        if snap.dpid != self.dpid:
            raise SimulationError(
                f"snapshot of {snap.dpid!r} cannot restore {self.dpid!r}"
            )
        for table, entries in zip(self.tables, snap.tables):
            table.restore(entries)
        self.groups = dict(snap.groups)
        if trace.enabled():
            self._publish_occupancy()
        return snap.num_entries

    def _check_table(self, table_id: int) -> None:
        if not 0 <= table_id < len(self.tables):
            raise SimulationError(
                f"switch {self.dpid}: no table {table_id} "
                f"(have 0..{len(self.tables) - 1})"
            )

    def _check_instructions(self, table_id: int, instructions) -> None:
        for ins in instructions:
            if isinstance(ins, GotoTable):
                if ins.table <= table_id:
                    raise SimulationError(
                        f"switch {self.dpid}: GotoTable({ins.table}) from "
                        f"table {table_id} must go forward"
                    )
                self._check_table(ins.table)
            elif isinstance(ins, ApplyActions):
                for a in ins.actions:
                    if isinstance(a, Output) and not 1 <= a.port <= self.num_ports:
                        raise SimulationError(
                            f"switch {self.dpid}: Output({a.port}) out of "
                            f"range 1..{self.num_ports}"
                        )
                    if isinstance(a, Group) and a.group_id not in self.groups:
                        raise SimulationError(
                            f"switch {self.dpid}: rule references "
                            f"missing group {a.group_id} (install the "
                            "group first)"
                        )

    # --- data plane -----------------------------------------------------
    def forward(
        self, in_port: int, header: PacketHeader, nbytes: int = 0
    ) -> ForwardDecision:
        """Run one packet through the pipeline; updates counters.

        Between table mutations the pipeline's outcome is a pure
        function of ``(in_port, header)``, so it is memoised: a repeat
        packet replays the side effects of its first walk — the rx/tx
        port counters and each hit entry's packet/byte counts — and
        touches no table. The memo is dropped whenever the tables'
        shared mutation epoch has moved (see :mod:`.flowtable`), and an
        outcome is never stored if the walk ended in a table miss (the
        miss counter and ``switch.packet_in`` must fire per packet) or
        met a ``Group`` action (group membership changes without
        touching a table). It stops growing at a fixed size."""
        if not 1 <= in_port <= self.num_ports:
            raise SimulationError(
                f"switch {self.dpid}: packet on bad port {in_port}"
            )
        port_stats = self.port_stats
        stats = port_stats[in_port]
        stats.rx_packets += 1
        stats.rx_bytes += nbytes

        if self._decisions_epoch != self._epoch[0]:
            self._decisions.clear()
            self._decisions_epoch = self._epoch[0]
        memo = self._decisions.get((in_port, header))
        if memo is not None:
            decision, hits = memo
            for entry in hits:
                entry.hit(nbytes)
        else:
            decision, hits = self._walk(in_port, header, nbytes)
            if hits is not None and len(self._decisions) < 65536:
                self._decisions[in_port, header] = decision, hits
        for p in decision.out_ports:
            stats = port_stats[p]
            stats.tx_packets += 1
            stats.tx_bytes += nbytes
        return decision

    def _walk(
        self, in_port: int, header: PacketHeader, nbytes: int
    ) -> tuple[ForwardDecision, tuple[FlowEntry, ...] | None]:
        """The pipeline walk behind :meth:`forward`: bumps the counters
        of the entries it hits and returns the decision plus those
        entries — or ``None`` in their place when the outcome may not
        be memoised (a table miss, a ``Group`` action)."""
        metadata = 0
        queue = 0
        vc: int | None = None
        out_ports: list[int] = []
        matched: list[int] = []
        hits: list[FlowEntry] = []
        reusable = True
        table_id = 0
        hdr = header
        while True:
            entry = self.tables[table_id].lookup(in_port, metadata, hdr)
            if entry is None:
                # table miss => drop (default-deny isolation)
                reusable = False
                tracer = trace.active_tracer()
                if tracer is not None:
                    metrics.registry().counter(
                        "sdt_switch_match_miss_total"
                    ).inc(1, switch=self.dpid, table=table_id)
                    if not matched:
                        # nothing in the pipeline claimed this packet:
                        # the OpenFlow packet-in analog
                        tracer.event(
                            "switch.packet_in",
                            switch=self.dpid,
                            in_port=in_port,
                            src=hdr.src,
                            dst=hdr.dst,
                        )
                break
            entry.hit(nbytes)
            hits.append(entry)
            matched.append(table_id)
            next_table: int | None = None
            for ins in entry.instructions:
                if isinstance(ins, WriteMetadata):
                    metadata = (metadata & ~ins.mask) | (ins.value & ins.mask)
                elif isinstance(ins, GotoTable):
                    next_table = ins.table
                elif isinstance(ins, ApplyActions):
                    for a in ins.actions:
                        if isinstance(a, Output):
                            out_ports.append(a.port)
                        elif isinstance(a, Group):
                            reusable = False
                            group_entry = self.groups.get(a.group_id)
                            if group_entry is None:
                                continue  # group removed: act like drop
                            if group_entry.group_type == "select":
                                chosen = [group_entry.select_bucket(hdr)]
                            else:  # "all": replicate
                                chosen = list(group_entry.buckets)
                            for bucket in chosen:
                                for ba in bucket.actions:
                                    if isinstance(ba, Output):
                                        out_ports.append(ba.port)
                                    elif isinstance(ba, SetQueue):
                                        queue = ba.queue
                                    elif isinstance(ba, SetVC):
                                        vc = ba.vc
                                        hdr = hdr.with_vc(ba.vc)
                        elif isinstance(a, SetQueue):
                            queue = a.queue
                        elif isinstance(a, SetVC):
                            vc = a.vc
                            hdr = hdr.with_vc(a.vc)
                        elif isinstance(a, Drop):
                            out_ports.clear()
                            next_table = None
                            break
            if next_table is None:
                break
            table_id = next_table

        decision = ForwardDecision(
            out_ports=tuple(out_ports),
            queue=queue,
            vc=vc,
            matched_tables=tuple(matched),
        )
        return decision, tuple(hits) if reusable else None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OpenFlowSwitch({self.dpid!r}, ports={self.num_ports}, "
            f"entries={self.num_entries}/{self.flow_table_capacity})"
        )
