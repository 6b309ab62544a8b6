"""Columnar compiled-rule blocks.

One :class:`CompiledBlock` is the compilation output for one
sub-switch: a handful of *columns* (classification ports, route
destinations, VC and output-port vectors) instead of a list of FlowMod
objects. Blocks are what rule synthesis passes around and what one
rule generation hands on to the next, so the hot reconfiguration path
moves O(columns) of data per sub-switch. A block
builds its rows in one place — one row producer per table,
:meth:`CompiledBlock.classify_rows` and :meth:`CompiledBlock.route_rows`
— and has two readings of them:

* :meth:`CompiledBlock.row_parts` — the install reading: per table, the
  row count, the producer and the distinct instruction tuples the
  switch validates. This is what a cold deploy pushes through the
  control channel, and the flow tables hold it as *pending rows*: the
  producer runs — flow entries with their hash-index keys, straight
  from the columns — only when a lookup, snapshot or strict delete
  needs the entries. No FlowMod exists, and a deploy nobody reads
  builds no entry either.
* :meth:`CompiledBlock.pairs` — the per-message reading: the same rows
  as FlowMods, the per-rule control messages, *materialized* only for
  consumers that need each message (journal, tracer, fault injection)
  and counted by ``sdt_rules_materialized_total``. A row selection
  reads just some of them: an incremental edit's delta builds only the
  differing rows of each dirty block and its old self.

:func:`block_columns` compiles a sub-switch into those columns in one
pass over its route entries. The column tuple is the block's identity:
two blocks with equal columns emit the same rules, so a generation
compiled against the one it replaces keeps a sub-switch's old block
when its columns are unchanged, and a block shared between two rule
generations is proof that every rule in it is unchanged — which is
what lets the transaction delta skip whole sub-switches without
comparing (or even creating) their FlowMods. Two blocks of the
same sub-switch — same physical switch, metadata id and cookie — are
compared column by column, row by row, again without a FlowMod.

Columns are plain tuples: they are written once at compile time and
read row by row — no array arithmetic ever runs on them.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial

from repro.openflow.actions import (
    ApplyActions,
    GotoTable,
    Instruction,
    Output,
    SetQueue,
    SetVC,
    WriteMetadata,
)
from repro.openflow.channel import FlowMod
from repro.openflow.flowtable import FlowEntry, IndexKey
from repro.openflow.match import Match
from repro.telemetry import metrics
from repro.util.errors import ProjectionError

CLASSIFY_TABLE = 0
ROUTE_TABLE = 1

#: Priorities: exact-VC routing beats wildcard-VC routing; per-flow
#: overrides (active routing) use PRIORITY_OVERRIDE.
PRIORITY_CLASSIFY = 100
PRIORITY_ROUTE_EXACT = 60
PRIORITY_ROUTE_WILD = 50
PRIORITY_OVERRIDE = 200

#: encodes "no incoming-VC constraint" in the in_vc integer column
NO_VC = -1

#: a block's columns in :class:`CompiledBlock` constructor order: phys
#: switch, metadata id, cookie, classify switches, classify ports,
#: dsts, in-VCs, out-VCs, out-ports (see :func:`block_columns`)
Columns = tuple[
    str, int, int,
    tuple[str, ...], tuple[int, ...],
    tuple[str, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...],
]

#: a row producer: a :data:`~repro.openflow.flowtable.RowBuilder` that
#: also takes an optional list of row indices to build
RowProducer = Callable[..., None]

#: some of a block's rows, per table in table-id order (classification,
#: routing): ascending indices into that table's columns
RowSelection = tuple[list[int], list[int]]

#: the flow tables' hash-index shapes of the three kinds of row a block
#: holds (field names in repro.openflow.flowtable's canonical order)
_SHAPE_CLASSIFY = ("in_port",)
_SHAPE_ROUTE_WILD = ("metadata", "dst")
_SHAPE_ROUTE_EXACT = ("metadata", "dst", "vc")
#: the full metadata mask a ``Match(metadata=...)`` carries by default
_DEFAULT_MASK = Match().metadata_mask

#: shared route-action tuples keyed by (in_vc, out_vc, out_port) —
#: across a deployment most rules repeat a small set of action
#: combinations, and sharing the tuples lets the switch validate each
#: distinct one once (see OpenFlowSwitch._check_instructions)
_route_instr_pool: dict[tuple[int, int, int], tuple[Instruction, ...]] = {}
_ROUTE_POOL_MAX = 1 << 16

#: classification matches keyed by in_port — the same port numbers
#: recur on every physical switch, and Match is immutable
_classify_match_pool: dict[int, Match] = {}
_CLASSIFY_POOL_MAX = 1 << 14


def _classify_match(port: int) -> Match:
    m = _classify_match_pool.get(port)
    if m is None:
        m = Match(in_port=port)
        if len(_classify_match_pool) < _CLASSIFY_POOL_MAX:
            _classify_match_pool[port] = m
    return m


def route_instructions(
    in_vc: int, out_vc: int, out_port: int
) -> tuple[Instruction, ...]:
    """The instruction tuple for one routing row (``in_vc`` may be
    :data:`NO_VC`), pooled so equal rows share one tuple."""
    key = (in_vc, out_vc, out_port)
    cached = _route_instr_pool.get(key)
    if cached is not None:
        return cached
    actions: list = []
    if in_vc == NO_VC:
        if out_vc != 0:
            actions.append(SetVC(out_vc))
    else:
        if out_vc != in_vc:
            actions.append(SetVC(out_vc))
    actions.append(SetQueue(out_vc))
    actions.append(Output(out_port))
    instrs = (ApplyActions(actions),)
    if len(_route_instr_pool) < _ROUTE_POOL_MAX:
        _route_instr_pool[key] = instrs
    return instrs


class CompiledBlock:
    """One sub-switch's compiled rules in columnar form.

    Columns (all aligned by row index for the route table):

    * ``classify_switches`` / ``classify_ports`` — table-0 rows, one
      per in-use physical port (parallel sequences).
    * ``dsts`` — destination physical addresses (strings).
    * ``in_vcs`` — incoming VC per row, :data:`NO_VC` for wildcard.
    * ``out_vcs`` / ``out_ports`` — the action columns.

    ``pairs()`` materializes the classic ``(phys_switch, FlowMod)``
    sequence lazily and caches it on the block — an unchanged block is
    handed on from one rule generation to the next, so its FlowMods are
    built at most once no matter how many generations reuse it.
    ``row_parts()`` reads the same rows as a bulk install, unbuilt; its
    producers build fresh flow entries per call (an entry belongs to
    one table).
    """

    __slots__ = (
        "phys_switch", "metadata_id", "cookie",
        "classify_switches", "classify_ports",
        "dsts", "in_vcs", "out_vcs", "out_ports",
        "_pairs", "_tag", "_actions", "_distinct", "__weakref__",
    )

    def __init__(
        self,
        phys_switch: str,
        metadata_id: int,
        cookie: int,
        classify_switches: tuple[str, ...],
        classify_ports: tuple[int, ...],
        dsts: tuple[str, ...],
        in_vcs: tuple[int, ...],
        out_vcs: tuple[int, ...],
        out_ports: tuple[int, ...],
    ) -> None:
        self.phys_switch = phys_switch
        self.metadata_id = metadata_id
        self.cookie = cookie
        self.classify_switches = classify_switches
        self.classify_ports = classify_ports
        self.dsts = dsts
        self.in_vcs = in_vcs
        self.out_vcs = out_vcs
        self.out_ports = out_ports
        self._pairs: tuple[tuple[str, FlowMod], ...] | None = None
        #: the classification rows' instructions, and the routing rows'
        #: per distinct (in_vc, out_vc, out_port), in row order — built
        #: on first use, like ``_pairs``
        self._tag: tuple[Instruction, ...] | None = None
        self._actions: dict[tuple[int, int, int], tuple[Instruction, ...]] | None = None
        self._distinct: bool | None = None

    @property
    def columns(self) -> Columns:
        """The block's columns in constructor order: its identity (what
        :func:`block_columns` returned for it)."""
        return (
            self.phys_switch, self.metadata_id, self.cookie,
            self.classify_switches, self.classify_ports,
            self.dsts, self.in_vcs, self.out_vcs, self.out_ports,
        )

    @property
    def count(self) -> int:
        """Rules in this block (classification + routing)."""
        return len(self.classify_switches) + len(self.dsts)

    def per_switch_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for sw in self.classify_switches:
            counts[sw] = counts.get(sw, 0) + 1
        if len(self.dsts):
            counts[self.phys_switch] = (
                counts.get(self.phys_switch, 0) + len(self.dsts)
            )
        return counts

    def distinct_routes(self) -> bool:
        """Does every routing row match a (destination, incoming VC) of
        its own? Synthesis guarantees it — a route table holds one entry
        per pair — and a hand-built block may break it."""
        if self._distinct is None:
            n = len(self.dsts)
            self._distinct = (
                len(set(self.dsts)) == n
                or len(set(zip(self.dsts, self.in_vcs))) == n
            )
        return self._distinct

    def _tag_instructions(self) -> tuple[Instruction, ...]:
        if self._tag is None:
            self._tag = (WriteMetadata(self.metadata_id), GotoTable(ROUTE_TABLE))
        return self._tag

    def _route_actions(self) -> dict[tuple[int, int, int], tuple[Instruction, ...]]:
        if self._actions is None:
            actions = dict.fromkeys(zip(self.in_vcs, self.out_vcs, self.out_ports))
            for action in actions:
                actions[action] = route_instructions(*action)
            self._actions = actions
        return self._actions

    def row_parts(
        self, switch: str
    ) -> list[tuple[int, int, RowProducer, list[tuple[Instruction, ...]]]]:
        """This block's rows that land on ``switch``, unbuilt: per table
        with rows there — classification, then routing — ``(table id,
        rows, build, instructions)``. ``build(entries, keys)`` appends
        the rows as flow entries with the ``(shape, key)`` the hash index
        files them under (``build(entries, keys, indices)`` just the
        selected ones); ``instructions`` lists each distinct instruction
        tuple among them once. This is the one place a block's rows are
        laid out; :meth:`pairs` reads its FlowMods off it."""
        parts = []
        rows = self.classify_switches.count(switch)
        if rows:
            parts.append((
                CLASSIFY_TABLE, rows, partial(self.classify_rows, switch),
                [self._tag_instructions()],
            ))
        if switch == self.phys_switch and self.dsts:
            parts.append((
                ROUTE_TABLE, len(self.dsts), self.route_rows,
                list(self._route_actions().values()),
            ))
        return parts

    def classify_rows(
        self,
        switch: str,
        entries: list[FlowEntry],
        keys: list[IndexKey],
        rows: list[int] | None = None,
    ) -> None:
        """Table 0, port -> sub-switch classification: append the rows
        on ``switch`` — of ``rows`` (indices into the classification
        columns) if given — to ``entries`` and their index keys to
        ``keys``."""
        instrs = self._tag_instructions()
        cookie = self.cookie
        switches, ports = self.classify_switches, self.classify_ports
        if rows is not None:
            switches = [switches[i] for i in rows]
            ports = [ports[i] for i in rows]
        for sw, port in zip(switches, ports):
            if sw == switch:
                entries.append(FlowEntry(
                    PRIORITY_CLASSIFY, _classify_match(port), instrs, cookie
                ))
                keys.append((_SHAPE_CLASSIFY, (port,)))

    def route_rows(
        self,
        entries: list[FlowEntry],
        keys: list[IndexKey],
        rows: list[int] | None = None,
    ) -> None:
        """Table 1, destination-based routing within the sub-switch (on
        its own physical switch): append the rows — ``rows`` (indices
        into the routing columns) if given — to ``entries`` and their
        index keys to ``keys``."""
        dsts, in_vcs = self.dsts, self.in_vcs
        out_vcs, out_ports = self.out_vcs, self.out_ports
        if rows is not None:
            dsts = [dsts[i] for i in rows]
            in_vcs = [in_vcs[i] for i in rows]
            out_vcs = [out_vcs[i] for i in rows]
            out_ports = [out_ports[i] for i in rows]
        cookie = self.cookie
        metadata_id = self.metadata_id
        add_entry = entries.append
        add_key = keys.append
        # Match._make skips the keyword-argument constructor (~3x the
        # cost, once per rule): fields are in_port, metadata,
        # metadata_mask, dst, src, proto, src_port, dst_port, vc
        make_match = Match._make
        mask = _DEFAULT_MASK
        # the index keys metadata as Match.matches compares it: masked
        md_key = metadata_id & mask
        actions = self._route_actions()
        for dst, action in zip(dsts, zip(in_vcs, out_vcs, out_ports)):
            instrs = actions[action]
            in_vc = action[0]
            if in_vc == NO_VC:
                match = make_match(
                    (None, metadata_id, mask, dst, None, None, None, None, None)
                )
                add_entry(FlowEntry(PRIORITY_ROUTE_WILD, match, instrs, cookie))
                add_key((_SHAPE_ROUTE_WILD, (md_key, dst)))
            else:
                match = make_match(
                    (None, metadata_id, mask, dst, None, None, None, None, in_vc)
                )
                add_entry(FlowEntry(PRIORITY_ROUTE_EXACT, match, instrs, cookie))
                add_key((_SHAPE_ROUTE_EXACT, (md_key, dst, in_vc)))

    def pairs(
        self, rows: RowSelection | None = None
    ) -> tuple[tuple[str, FlowMod], ...]:
        """Materialize (physical switch, FlowMod) rows: per switch, in
        :meth:`per_switch_counts` order, the rows :meth:`row_parts` lays
        out for it, as control messages. The whole block is cached;
        ``rows`` selects some of its rows instead, built afresh."""
        if rows is None and self._pairs is not None:
            return self._pairs
        out: list[tuple[str, FlowMod]] = []
        for switch in self.per_switch_counts():
            for table_id, _rows, build, _instrs in self.row_parts(switch):
                selected = None if rows is None else rows[table_id]
                if selected is not None and not selected:
                    continue
                entries: list[FlowEntry] = []
                build(entries, [], selected)
                out.extend(
                    (switch, FlowMod(
                        table_id, e.priority, e.match, e.instructions, e.cookie
                    ))
                    for e in entries
                )
        metrics.registry().counter("sdt_rules_materialized_total").inc(len(out))
        if rows is not None:
            return tuple(out)
        self._pairs = tuple(out)
        return self._pairs


def block_columns(sub, host_map, routes, cookie: int) -> Columns:
    """One sub-switch's compiled rules, as its block's columns.

    ``routes`` are the route-table entries through ``sub``'s logical
    switch as :meth:`~repro.routing.table.RouteTable.maps_at` gives
    them — wildcard entries by destination, exact ones by (destination,
    in-VC) — or a list of (switch, dst, in_vc, hop) entries in
    :meth:`~repro.routing.table.RouteTable.entries` order, which are
    filed that way first; ``host_map`` gives a host's physical address.
    Each distinct hop is resolved once to the physical facts its rules
    depend on — out-VC and physical out port — and every entry becomes
    a row (phys dst address, in-VC, out-VC, phys out port), wildcard
    rows first; an entry whose destination or port got no hardware is
    dropped (route-usage pruning). The result is :class:`CompiledBlock`'s
    constructor arguments in order, and the block's identity:
    :func:`~repro.core.rules.synthesize_rules` keeps an old block whose
    columns equal it.
    """
    wild, exact = _filed(routes) if isinstance(routes, list) else routes
    ports = sub.ports
    logical = sub.logical_switch
    classify = sorted(ports.items())
    hops = [*wild.values(), *exact.values()]
    dsts = [*wild, *[dst for dst, _vc in exact]]
    in_vcs = [NO_VC] * len(wild) + [vc for _dst, vc in exact]
    # each distinct hop resolved once, keyed by identity (a Hop hashes
    # in Python): its out-VC, and its physical out port — None when the
    # port got no hardware
    keys = [*map(id, hops)]
    distinct = dict(zip(keys, hops))
    out_vc: dict[int, int] = {}
    out_port: dict[int, int | None] = {}
    stray = set()  # hops whose port is on another switch
    for key, hop in distinct.items():
        phys_out = ports.get(hop.port.index)
        out_vc[key] = hop.vc
        out_port[key] = None if phys_out is None else phys_out.port
        if phys_out is not None and hop.port.node != logical:
            stray.add(key)
    if None in out_port.values() or not (
        host_map.keys() >= wild.keys()
        and all(dst in host_map for dst, _vc in exact)
    ):
        # the rows whose destination and port got hardware
        rows = [
            i for i, (dst, key) in enumerate(zip(dsts, keys))
            if dst in host_map and out_port[key] is not None
        ]
        dsts = [dsts[i] for i in rows]
        in_vcs = [in_vcs[i] for i in rows]
        keys = [keys[i] for i in rows]
    if stray and not stray.isdisjoint(keys):
        port = distinct[next(key for key in keys if key in stray)].port
        raise ProjectionError(f"port {port} is not on {logical!r}")
    vcs = set(out_vc.values())
    return (
        sub.phys_switch,
        sub.metadata_id,
        cookie,
        tuple(pp.switch for _idx, pp in classify),
        tuple(pp.port for _idx, pp in classify),
        tuple(map(host_map.__getitem__, dsts)),
        tuple(in_vcs),
        # one VC for every hop, the common case, needs no pass
        (vcs.pop(),) * len(keys) if len(vcs) == 1
        else tuple(map(out_vc.__getitem__, keys)),
        tuple(map(out_port.__getitem__, keys)),
    )


def _filed(entries) -> tuple[dict, dict]:
    """(switch, dst, in_vc, hop) entries filed as
    :meth:`~repro.routing.table.RouteTable.maps_at` files a switch's."""
    wild: dict = {}
    exact: dict = {}
    for _switch, dst, in_vc, hop in entries:
        if in_vc is None:
            wild[dst] = hop
        else:
            exact[dst, in_vc] = hop
    return wild, exact
