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
from typing import Iterable, Iterator, NamedTuple, Sequence

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
    IndexKey,
    RowBuilder,
    _shape_key,
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


class FlowMod(NamedTuple):
    """An ADD flow-mod (the only kind SDT deployment needs, plus
    cookie-based bulk DELETE below).

    A NamedTuple for the same reason as :class:`Match`: cold deploys
    construct one per rule and delta staging hashes whole rule
    generations, and tuples do both at C speed. The nested-instruction
    hash cost is amortized by :class:`ApplyActions`'s memoized hash on
    the pooled instruction objects.
    """

    table_id: int
    priority: int
    match: Match
    instructions: tuple
    cookie: int = 0


@dataclass(frozen=True)
class FlowDelete:
    """Delete entries matching every non-``None`` field.

    The classic SDT teardown is cookie-only (``FlowDelete(cookie=c)``
    retires one deployment generation; all-``None`` wipes the switch).
    The incremental reconfigurer additionally sets ``table_id`` /
    ``priority`` / ``match`` for an OFPFC_DELETE_STRICT that removes a
    single stale entry while its unchanged neighbors stay installed.
    """

    cookie: int | None = None
    table_id: int | None = None
    priority: int | None = None
    match: Match | None = None

    @property
    def strict(self) -> bool:
        """Does this delete name one entry identity (table, priority,
        match and cookie all given), as the incremental reconfigurer's
        strict deletes do?"""
        return (
            self.table_id is not None
            and self.priority is not None
            and self.match is not None
            and self.cookie is not None
        )


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


class ModifyRun:
    """Rules that keep their identity and change their instructions,
    staged for one switch as one message.

    Each row stands for two messages, the per-entry break-before-make
    of an incremental delta: the strict delete of the row's identity
    (table, priority, match, cookie), then its install. Rows arrive
    built — a flow entry and the ``(shape, key)`` its match files under
    — so the switch deletes by that key and files that entry, and the
    FlowDeletes and FlowMods are built only for consumers that need
    each message (iteration; see :func:`flow_messages`).
    """

    __slots__ = ("table_id", "entries", "keys")

    def __init__(
        self, table_id: int, entries: list[FlowEntry], keys: list[IndexKey]
    ) -> None:
        self.table_id = table_id
        self.entries = entries
        self.keys = keys

    def __iter__(self) -> Iterator[FlowDelete | FlowMod]:
        tid = self.table_id
        for e in self.entries:
            yield FlowDelete(
                cookie=e.cookie, table_id=tid, priority=e.priority, match=e.match
            )
            yield FlowMod(tid, e.priority, e.match, e.instructions, e.cookie)


class FlowMessages:
    """A switch's staged messages, read message by message: every
    :class:`FlowModRun` gives way to the FlowMods it stands for, every
    :class:`ModifyRun` to its deletes and installs. Iterating is where
    those get built, so only consumers that need each message (the
    journal's intent record, an armed channel fault, capacity
    simulation across deletes) iterate. ``staged`` is the list as
    staged: what :meth:`OpenFlowSwitch.add_flow_batch` takes in one
    pass."""

    __slots__ = ("staged",)

    def __init__(self, staged: Sequence) -> None:
        self.staged = staged

    def __iter__(self) -> Iterator[FlowMod | FlowDelete]:
        for msg in self.staged:
            if isinstance(msg, (FlowModRun, ModifyRun)):
                yield from msg
            else:
                yield msg


def flow_messages(staged: Sequence) -> FlowMessages:
    """``staged`` (FlowMods, FlowDeletes, FlowModRuns, ModifyRuns) as
    the control messages it stands for, one by one."""
    return FlowMessages(staged)


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
            raise self._full()
        entry = FlowEntry(priority, match, tuple(instructions), cookie=cookie)
        self.tables[table_id].add(entry)
        if trace.enabled():
            self._publish_occupancy()
        return entry

    def add_flow_batch(
        self,
        messages: Iterable[FlowMod | FlowDelete | ModifyRun] | FlowModRun,
        reached: list[int] | None = None,
    ) -> None:
        """Apply one switch's staged messages — FlowMods, FlowDeletes,
        FlowModRuns and ModifyRuns, or one FlowModRun alone — in staging
        order, in one pass.

        The result is a per-message loop's (:meth:`add_flow` per
        install, :meth:`remove_flows` per delete): the same entries,
        serials and order, and if the TCAM budget runs out, every
        message before the overflowing install is applied and
        :class:`CapacityError` is raised for it. The pass keeps the free
        entry count as a local, checks each distinct (table,
        instructions) pair once, and computes each entry's (shape, key)
        once: a strict delete finds its victims by its match's key, and
        an install right after it that carries the same match object (a
        modified rule) files under that key.

        Installs are validated a batch at a time, as a bulk install
        validates its batch: each maximal run of consecutive FlowMods,
        and each FlowModRun, is checked before any of it is applied, so
        a bad table id or instruction among them applies none of that
        batch (a per-message loop would have applied the good prefix).

        A :class:`FlowModRun` that fits is installed from its
        :meth:`~FlowModRun.pending_rows` without a FlowMod or a flow
        entry being built: the table ids and each distinct instruction
        tuple are checked once, then each table holds its rows pending
        (:meth:`FlowTable.add_pending`) until a reader needs them. A run
        that would overflow is expanded and installed message by
        message, which installs the exact prefix. A
        :class:`ModifyRun`'s rows arrive built and are filed as they are.

        ``reached``, if given, has its first item set to the messages
        the pass reached — a FlowModRun counting as its FlowMods, a
        ModifyRun as two per row —: every one applied, plus the one that
        raised, if any.
        """
        if isinstance(messages, FlowModRun):
            messages = [messages]
        elif not isinstance(messages, list):
            messages = list(messages)
        tables = self.tables
        free = self.flow_table_capacity - self.num_entries
        # (table, id(instructions)) -> instructions, kept so ids stay
        # unique while the pass runs
        checked: dict[tuple[int, int], tuple] = {}
        done = 0
        last_match = last_key = None
        i, n = 0, len(messages)
        try:
            while i < n:
                msg = messages[i]
                i += 1
                if isinstance(msg, FlowMod):
                    j = i
                    while j < n and isinstance(messages[j], FlowMod):
                        j += 1
                    group, i = messages[i - 1:j], j
                elif isinstance(msg, FlowDelete):
                    if msg.strict and 0 <= msg.table_id < len(tables):
                        last_match = msg.match
                        last_key = _shape_key(last_match)
                        free += tables[msg.table_id].remove_strict(
                            last_match, msg.priority, msg.cookie, last_key
                        )
                    else:
                        free += self.remove_flows(
                            cookie=msg.cookie,
                            table_id=msg.table_id,
                            priority=msg.priority,
                            match=msg.match,
                        )
                    done += 1
                    continue
                elif isinstance(msg, ModifyRun):
                    # per row: the strict delete of its identity, then
                    # its install, each by the row's own key
                    tid = msg.table_id
                    if not 0 <= tid < len(tables):
                        # the first delete removes nothing, the first
                        # install is refused
                        done += 1
                        self._check_table(tid)
                    table = tables[tid]
                    for entry, key in zip(msg.entries, msg.keys):
                        free += table.remove_strict(
                            entry.match, entry.priority, entry.cookie, key
                        )
                        done += 1
                        self._check_once(checked, tid, entry.instructions)
                        if free <= 0:
                            raise self._full()
                        table.put(entry, key)
                        free -= 1
                        done += 1
                    continue
                elif isinstance(msg, FlowModRun):
                    if len(msg) > free:
                        group = list(msg)
                    else:
                        runs = msg.pending_rows()
                        for rows in runs:
                            self._check_table(rows.table_id)
                            for instructions in rows.instructions:
                                self._check_once(
                                    checked, rows.table_id, instructions
                                )
                        for rows in runs:
                            tables[rows.table_id].add_pending(rows.parts)
                        free -= len(msg)
                        done += len(msg)
                        continue
                else:
                    raise TypeError(f"unknown control message {msg!r}")
                # a batch of installs: validate and build what fits, then
                # file it table by table (serials are per table)
                fits = group[:free] if len(group) > free else group
                by_table: dict[int, tuple[list[FlowEntry], list[IndexKey]]] = {}
                for m in fits:
                    tid, match = m.table_id, m.match
                    self._check_once(checked, tid, m.instructions)
                    if tid not in by_table:
                        by_table[tid] = ([], [])
                    entries, keys = by_table[tid]
                    entries.append(FlowEntry(
                        m.priority, match, tuple(m.instructions), cookie=m.cookie
                    ))
                    keys.append(
                        last_key if match is last_match else _shape_key(match)
                    )
                for tid, (entries, keys) in by_table.items():
                    tables[tid].add_batch(entries, keys)
                free -= len(fits)
                done += len(fits)
                if len(fits) < len(group):
                    # validate the doomed message too, so a bad mod is
                    # still reported as such rather than masked by the
                    # full table
                    doomed = group[len(fits)]
                    self._check_once(checked, doomed.table_id, doomed.instructions)
                    raise self._full()
        except (CapacityError, SimulationError):
            done += 1  # the message that raised
            raise
        finally:
            if reached is not None:
                reached[0] = done
            if done and trace.enabled():
                self._publish_occupancy()

    def _check_once(self, checked: dict, table_id: int, instructions) -> None:
        """Validate a (table, instructions) pair unless ``checked``
        holds it already (by identity: synthesis pools instruction
        tuples, so a batch repeats a few of them)."""
        ck = (table_id, id(instructions))
        if ck not in checked:
            self._check_table(table_id)
            self._check_instructions(table_id, instructions)
            checked[ck] = instructions

    def _full(self) -> CapacityError:
        return CapacityError(
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
