"""OpenFlow rule synthesis for a projected topology.

The SDT pipeline on every physical switch uses two tables:

* **Table 0 — classification.** One rule per in-use physical port:
  tag the packet with its sub-switch's ``metadata_id`` and continue to
  table 1. This is what *partitions* the physical switch (§IV-A):
  a port's sub-switch membership is pure flow-table state.
* **Table 1 — routing.** One rule per (sub-switch, destination host
  [, incoming VC]): match the metadata tag plus the packet's
  destination, emit on the physical port that realizes the logical
  next-hop, optionally rewriting VC/queue for deadlock avoidance.

A table miss anywhere drops the packet — the default-deny that gives
SDT its hardware isolation (§VI-B). Rule counts stay small because
routing is destination-based: the paper's ~300 entries/switch for a
k=4 Fat-Tree on two switches falls out of this synthesis (see the
``test_flowtable_usage`` benchmark).

Synthesis is *columnar*: each sub-switch compiles into one
:class:`~repro.core.columnar.CompiledBlock` (aligned integer/string
columns), and a :class:`RuleSet` is nothing but its blocks. It crosses
the control channel as blocks too (:meth:`RuleSet.runs`); FlowMod
objects are only materialized for consumers that need each message.
Blocks are the unit of reuse: a generation compiled against the one it
replaces hands every unchanged sub-switch its old block — see DESIGN.md
§5b and "Data-plane performance architecture". The rule forms outside
this pipeline — the flat ACL table of :mod:`repro.core.rules_acl` and
the ECMP rules of :mod:`repro.core.rules_ecmp` — are plain
``{switch: [FlowMod]}`` mappings, which
``ControlTransaction.stage_rules`` accepts as they are.
"""

from __future__ import annotations

from collections.abc import Collection, Mapping
from dataclasses import dataclass
from itertools import compress
from operator import ne, or_

from repro.core.columnar import (
    CLASSIFY_TABLE,
    PRIORITY_CLASSIFY,
    PRIORITY_OVERRIDE,
    PRIORITY_ROUTE_EXACT,
    PRIORITY_ROUTE_WILD,
    ROUTE_TABLE,
    CompiledBlock,
    RowSelection,
    block_columns,
)
from repro.core.projection.base import ProjectionResult
from repro.openflow.actions import ApplyActions, Output, SetQueue, SetVC
from repro.openflow.match import Match
from repro.openflow.switch import FlowMod, FlowModRun, ModifyRun, PendingRows
from repro.routing.table import RouteTable
from repro.telemetry import metrics
from repro.util.errors import ProjectionError

__all__ = [
    "CLASSIFY_TABLE",
    "ROUTE_TABLE",
    "PRIORITY_CLASSIFY",
    "PRIORITY_ROUTE_EXACT",
    "PRIORITY_ROUTE_WILD",
    "PRIORITY_OVERRIDE",
    "RuleSet",
    "synthesize_rules",
    "unchanged_blocks",
    "flow_override",
]


class RuleSet:
    """One compiled rule generation: FlowMods per physical switch.

    It holds nothing but a list of :class:`CompiledBlock` (one per
    compiled sub-switch, in ``topology.switches`` order). ``mods`` — the
    classic ``{phys_switch: [FlowMod]}`` mapping — is materialized
    lazily and cached: rule *counting* (admission control, install-time
    estimates), *placement* (:meth:`switches`) and *installation*
    (:meth:`runs`) never have to build a FlowMod, and a block shared
    with a previous generation reuses the FlowMods it already
    materialized.
    """

    __slots__ = ("cookie", "_blocks", "_mods")

    def __init__(self, cookie: int) -> None:
        self.cookie = cookie
        self._blocks: list[CompiledBlock] = []
        self._mods: dict[str, list[FlowMod]] | None = None

    @property
    def blocks(self) -> list[CompiledBlock]:
        return self._blocks

    def add_block(self, block: CompiledBlock) -> None:
        self._blocks.append(block)
        self._mods = None

    @property
    def mods(self) -> dict[str, list[FlowMod]]:
        if self._mods is None:
            self._mods = _mods_of(self._blocks)
        return self._mods

    def switches(self) -> tuple[str, ...]:
        """The physical switches this rule set lands on — ``mods``'s
        keys, in its order, from column lengths alone."""
        return tuple(self.per_switch_counts())

    def runs(self) -> dict[str, FlowModRun]:
        """Per switch, this rule set's rows that land there as one
        stageable message (``ControlTransaction.stage_rules`` takes the
        rule set itself and calls this): ``mods[switch]`` exactly —
        blocks in order, classification rows then routing rows —
        without building it. The rule set must be complete: a run's row
        count is fixed here."""
        return {
            switch: _SwitchRun(self, switch, rows)
            for switch, rows in self.per_switch_counts().items()
        }

    def count(self, phys_switch: str | None = None) -> int:
        if phys_switch is not None:
            return self.per_switch_counts().get(phys_switch, 0)
        return sum(b.count for b in self._blocks)

    def per_switch_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for block in self._blocks:
            for sw, n in block.per_switch_counts().items():
                counts[sw] = counts.get(sw, 0) + n
        return counts


def _mods_of(
    blocks,
    rows: Mapping[int, RowSelection] | None = None,
    modified: Mapping[int, list[int]] | None = None,
) -> dict[str, list[FlowMod | ModifyRun]]:
    """The blocks' FlowMods per physical switch, in block order. A block
    with a selection in ``rows`` (keyed by its ``id``) contributes only
    the selected rows, and every switch it lands on keeps its key; its
    routing rows in ``modified`` (same key) follow them as one
    :class:`ModifyRun`, where its own routing rows would have come."""
    mods: dict[str, list[FlowMod | ModifyRun]] = {}
    for block in blocks:
        selection = rows.get(id(block)) if rows else None
        if selection is not None:
            for phys in block.per_switch_counts():
                mods.setdefault(phys, [])
        if selection is None or any(selection):
            for phys, mod in block.pairs(selection):
                bucket = mods.get(phys)
                if bucket is None:
                    mods[phys] = [mod]
                else:
                    bucket.append(mod)
        routes = modified.get(id(block)) if modified else None
        if routes:
            mods[block.phys_switch].append(block.modify_run(routes))
    return mods


class _SwitchRun(FlowModRun):
    """The rows of one :class:`RuleSet` that land on one switch."""

    __slots__ = ("_rules", "_switch", "_rows")

    def __init__(self, rules: RuleSet, switch: str, rows: int) -> None:
        self._rules = rules
        self._switch = switch
        self._rows = rows

    def __len__(self) -> int:
        return self._rows

    def __iter__(self):
        # the per-message form: every consumer that needs it shares the
        # rule set's one cached materialization
        return iter(self._rules.mods[self._switch])

    def pending_rows(self) -> list[PendingRows]:
        # each block's row producers, in block order: what the switch's
        # tables hold until a reader needs the entries
        tables = {
            CLASSIFY_TABLE: PendingRows(CLASSIFY_TABLE, [], []),
            ROUTE_TABLE: PendingRows(ROUTE_TABLE, [], []),
        }
        for block in self._rules.blocks:
            for table_id, rows, build, instructions in block.row_parts(
                self._switch
            ):
                table = tables[table_id]
                table.parts.append((rows, block.cookie, build))
                table.instructions.extend(instructions)
        return [table for table in tables.values() if table.parts]


def synthesize_rules(
    projection: ProjectionResult,
    routes: RouteTable,
    *,
    cookie: int = 1,
    previous: RuleSet | None = None,
    unchanged: Mapping[str, CompiledBlock] | None = None,
) -> RuleSet:
    """Compile a projection + route table into per-switch rule blocks.

    Compilation runs sub-switch by sub-switch, one pass over its route
    entries into the block's columns
    (:func:`~repro.core.columnar.block_columns`: every fact its rules
    are built from). ``previous`` is the rule set this generation
    replaces: a sub-switch whose columns equal those of its old block —
    the one block of ``previous`` with the same physical switch,
    metadata id and cookie — gets that block object back instead of a
    new one, and
    block identity is what :func:`split_ruleset_delta` uses to skip a
    whole sub-switch. Equal columns are equal rules, so anything that
    could alter an emitted FlowMod (a rerouted row, a re-projected port,
    another physical switch, tag or cookie) compiles a new block, and a
    logical port renumbering that leaves every row in place does not.
    ``unchanged`` maps logical switches to blocks the caller has proved
    these inputs would compile to again (:func:`unchanged_blocks`): they
    are handed back as they are, and only the other sub-switches' rows
    are read and resolved. ``sdt_rules_cache_total`` counts each block
    handed back as a ``hit`` and each block compiled as a ``miss``. The
    output's rules are identical with and without ``previous`` or
    ``unchanged``, a property the differential tests pin down.
    """
    if routes.topology is not projection.topology:
        # allow equal-by-structure tables but insist on matching names
        if routes.topology.name != projection.topology.name:
            raise ProjectionError(
                f"route table is for {routes.topology.name!r}, projection is "
                f"for {projection.topology.name!r}"
            )
    topo = projection.topology
    unchanged = unchanged or {}
    # a sub-switch's old block, by the key its columns start with
    old = {} if previous is None else _by_subswitch(previous.blocks)
    host_map = projection.host_map
    rules = RuleSet(cookie=cookie)
    compiled = synthesized = 0
    for sw in topo.switches:
        block = unchanged.get(sw)
        if block is None:
            columns = block_columns(
                projection.subswitches[sw], host_map, routes.maps_at(sw), cookie
            )
            block = old.get(columns[:3])
            if block is None or block.columns != columns:
                block = CompiledBlock(*columns)
                compiled += 1
                synthesized += block.count
        rules.add_block(block)
    lookups = metrics.registry().counter("sdt_rules_cache_total")
    if compiled < len(rules.blocks):
        lookups.inc(len(rules.blocks) - compiled, result="hit")
    if compiled:
        lookups.inc(compiled, result="miss")
    if synthesized:
        metrics.registry().counter("sdt_rules_synthesized_total").inc(
            synthesized
        )
    return rules


def unchanged_blocks(
    old_projection: ProjectionResult,
    old_rules: RuleSet,
    projection: ProjectionResult,
    moved: Collection[str],
    cookie: int,
) -> dict[str, CompiledBlock]:
    """The blocks of ``old_rules`` — compiled from ``old_projection``
    and some route table — that :func:`synthesize_rules` would compile
    again from ``projection``, a route table whose entries differ from
    the old one's only at the switches in ``moved`` (with the same keys
    in the same order), and ``cookie``: a block's columns are a function
    of its sub-switch, the host map, its switch's route entries and the
    cookie, so a block whose four inputs are equal is its own
    recompilation. Keyed by logical switch."""
    switches = old_projection.topology.switches
    if (
        old_rules.cookie != cookie
        or len(old_rules.blocks) != len(switches)
        or projection.host_map != old_projection.host_map
    ):
        return {}
    old_subs = old_projection.subswitches
    subs = projection.subswitches
    return {
        sw: block
        for sw, block in zip(switches, old_rules.blocks)
        if sw not in moved and subs.get(sw) == old_subs[sw]
    }


@dataclass(frozen=True)
class RulesDelta:
    """What :func:`split_ruleset_delta` found: per-switch FlowMod
    mappings holding only rows that can differ, plus the number of
    rules proven unchanged without a FlowMod — by block identity, or
    row by row within a sub-switch's two blocks. Routing rows a paired
    block reroutes in place are modified rules: ``new_mods`` holds them
    as one :class:`ModifyRun` per block, and ``old_mods`` leaves their
    old forms out (``ControlTransaction.stage_delta`` takes both)."""

    old_mods: dict[str, list[FlowMod]]
    new_mods: dict[str, list[FlowMod | ModifyRun]]
    shared_rules: int


def split_ruleset_delta(old: RuleSet, new: RuleSet) -> RulesDelta:
    """Reduce two RuleSets to the rows that can differ.

    Blocks present in both generations *by identity*
    (:func:`synthesize_rules` hands a sub-switch whose columns did not
    change its old block object) are proof that every rule in them
    survives unchanged: they are left out without materializing a
    single FlowMod. Every other (*dirty*) block is
    paired with its old self, the dirty block of the other generation
    with the same ``(phys_switch, metadata_id, cookie)``, and the two
    are compared column by column: only the differing rows of paired
    dirty blocks are built, in block order and pairs order, and the
    equal ones count as shared. Where both blocks hold the same match
    keys in the same order, a differing routing row keeps its identity
    and changes its actions: it is built once, from the new block, into
    that block's :class:`ModifyRun`, and its old form is not built at
    all; every other differing row is built as a FlowMod. A block with
    no partner goes in whole (an added or removed sub-switch, one moved
    to another switch or under a new cookie), and so does every block
    whose key repeats on either side. Each switch a dirty block lands on keeps its key,
    in first-seen order, even with no differing row: the keys are the
    delta's switch order, and with it commit and rollback order.

    Correctness: a shared block, or a row equal in both blocks of a
    pair, contributes the same (switch, rule) to both sides, so removing
    it from both leaves ``stage_delta``'s installs, deletes and
    modifications, and their order, untouched — as long as neither
    generation repeats a rule identity on a switch. Where one does,
    ``stage_delta`` must refuse the delta, so every dirty row goes in
    (the rows a repeat could hide behind would otherwise be dropped).
    Where none does, a rerouted routing row's identity — its block's
    switch, metadata id and cookie, its destination and incoming VC —
    is held by no other dirty row on either side (a block key that
    repeats leaves its blocks unpaired), so ``stage_delta`` would find
    it modified, and place it among the modified rules in new order:
    exactly where its :class:`ModifyRun` sits.
    """
    shared = {id(b) for b in old.blocks} & {id(b) for b in new.blocks}
    old_dirty = [b for b in old.blocks if id(b) not in shared]
    new_dirty = [b for b in new.blocks if id(b) not in shared]
    shared_rules = sum(b.count for b in old.blocks if id(b) in shared)
    rows: dict[int, RowSelection] = {}
    modified: dict[int, list[int]] = {}
    if not (_repeats_rules(old_dirty) or _repeats_rules(new_dirty)):
        after = _by_subswitch(new_dirty)
        for key, before in _by_subswitch(old_dirty).items():
            partner = after.get(key)
            if before is None or partner is None:
                continue
            old_rows, new_rows, routes = _differing_rows(before, partner)
            rows[id(before)], rows[id(partner)] = old_rows, new_rows
            if routes:
                modified[id(partner)] = routes
            shared_rules += (
                before.count - len(old_rows[0]) - len(old_rows[1]) - len(routes)
            )
    return RulesDelta(
        old_mods=_mods_of(old_dirty, rows),
        new_mods=_mods_of(new_dirty, rows, modified),
        shared_rules=shared_rules,
    )


def _repeats_rules(blocks: list[CompiledBlock]) -> bool:
    """Does a rule identity repeat on one switch among ``blocks``? A
    routing row's identity holds its block's metadata id and cookie and
    lands on its block's switch, so it repeats only within a block (a
    repeated destination and incoming VC) or across blocks that share a
    key, which go in whole anyway; a classification row's identity is
    its (switch, port, cookie)."""
    classified = set()
    rows = 0
    for block in blocks:
        if not block.distinct_routes():
            return True
        cookie = block.cookie
        for switch, port in zip(block.classify_switches, block.classify_ports):
            classified.add((switch, port, cookie))
        rows += len(block.classify_ports)
    return len(classified) != rows


def _by_subswitch(
    blocks: list[CompiledBlock],
) -> dict[tuple[str, int, int], CompiledBlock | None]:
    """``blocks`` by (phys_switch, metadata_id, cookie) — a block's
    sub-switch, the first three of its columns; ``None`` marks a key
    that more than one block holds."""
    out: dict[tuple[str, int, int], CompiledBlock | None] = {}
    for block in blocks:
        key = (block.phys_switch, block.metadata_id, block.cookie)
        out[key] = None if key in out else block
    return out


def _differing_rows(
    old: CompiledBlock, new: CompiledBlock
) -> tuple[RowSelection, RowSelection, list[int]]:
    """The rows of two blocks of one sub-switch that are not equal in
    both: their FlowMods are functions of the row's columns, given the
    shared metadata id and cookie. Routing rows that keep their match
    key in place and change their actions — same identity, other
    instructions: modified rules — come apart, as row indices into
    both blocks' routing columns."""
    old_classify, new_classify = _differing(
        list(zip(old.classify_switches, old.classify_ports)),
        list(zip(new.classify_switches, new.classify_ports)),
    )
    if old.dsts == new.dsts and old.in_vcs == new.in_vcs:
        # the same match keys in the same order: compare actions in place
        changed = map(ne, old.out_ports, new.out_ports)
        if old.out_vcs != new.out_vcs:
            changed = map(or_, changed, map(ne, old.out_vcs, new.out_vcs))
        routes = list(compress(range(len(old.dsts)), changed))
        return (old_classify, []), (new_classify, []), routes
    old_routes, new_routes = _differing(
        list(zip(old.dsts, old.in_vcs, old.out_vcs, old.out_ports)),
        list(zip(new.dsts, new.in_vcs, new.out_vcs, new.out_ports)),
    )
    return (old_classify, old_routes), (new_classify, new_routes), []


def _differing(old: list[tuple], new: list[tuple]) -> tuple[list[int], list[int]]:
    """Indices of the rows only ``old`` holds, and of those only ``new``
    holds."""
    if old == new:
        return [], []
    old_set, new_set = set(old), set(new)
    return (
        [i for i, row in enumerate(old) if row not in new_set],
        [i for i, row in enumerate(new) if row not in old_set],
    )


def flow_override(
    projection: ProjectionResult,
    logical_switch: str,
    *,
    src: str,
    dst: str,
    out_port_index: int,
    vc: int = 0,
    cookie: int = 1,
) -> tuple[str, FlowMod]:
    """A per-flow high-priority override rule (active routing, §VI-E).

    Matches (sub-switch, src, dst) and steers the flow out of logical
    port ``out_port_index`` instead of the table route. Returns the
    physical switch to install on plus the FlowMod.
    """
    sub = projection.subswitches[logical_switch]
    try:
        phys_out = sub.ports[out_port_index]
    except KeyError:
        raise ProjectionError(
            f"{logical_switch!r} has no projected port {out_port_index}"
        ) from None
    mod = FlowMod(
        table_id=ROUTE_TABLE,
        priority=PRIORITY_OVERRIDE,
        match=Match(
            metadata=sub.metadata_id,
            src=projection.host_map.get(src, src),
            dst=projection.host_map.get(dst, dst),
        ),
        instructions=(
            ApplyActions((SetVC(vc), SetQueue(vc), Output(phys_out.port))),
        ),
        cookie=cookie,
    )
    return phys_out.switch, mod
