"""Flow tables: priority-ordered match/instruction entries with counters.

A :class:`FlowTable` is one numbered table in the switch pipeline; the
switch holds a list of them. Entry capacity is enforced at the *switch*
level (hardware TCAM budgets are shared) — see
:class:`repro.openflow.switch.OpenFlowSwitch`.

Lookup is **hash-first**: every entry whose match constrains only
exact-comparable fields (the common case — SDT synthesis emits
``in_port`` classification rules and ``(metadata, dst[, vc])`` routing
rules, all exact) is filed in a per-*shape* hash index, where a shape
is the tuple of constrained field names. A packet lookup then probes
one bucket per shape present in the table — O(#shapes), not
O(#entries) — and only entries that hash-first cannot serve (a partial
``metadata_mask``) fall back to the classic priority-ordered scan.
The winner across probes and scan is ranked by (priority desc,
insertion order asc), which is exactly what the linear scan over the
priority-ordered list returns ("first added wins" among equal
priorities, as commodity switches do).

The shape index is the table's **only** index. A strict delete
(priority + match given) resolves through it too: the match's own
``(shape, key)`` names the one bucket — or the fallback list — that can
hold its victims, which are then filtered on priority, match, cookie
and liveness. Strict deletes only *mark* victims dead (``_dead``); the
entry list and hash buckets are pruned by a deferred compaction that
runs on reads that need the dense list (snapshot, iteration, wildcard
delete) or when the dead fraction crosses :data:`COMPACT_DEAD_MIN` /
:data:`COMPACT_DEAD_FRACTION` — so a delta batch of hundreds of strict
deletes costs O(victims), not O(table) per message.

Tombstones are keyed by each entry's table-assigned **serial** — a
monotonic counter stamped at index time — never by ``id(entry)``:
serials are unique for the table's lifetime, so a tombstone can never
alias a later entry the way a recycled CPython object id could.
"""

from __future__ import annotations

from bisect import insort_right
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.openflow.actions import Instruction
from repro.openflow.match import Match, PacketHeader

#: deferred compaction triggers once at least this many entries are
#: dead *and* they exceed COMPACT_DEAD_FRACTION of the list
COMPACT_DEAD_MIN = 64
COMPACT_DEAD_FRACTION = 0.25

#: match fields a hash bucket can key on, in canonical order
_HASH_FIELDS = (
    "in_port", "metadata", "dst", "src", "proto",
    "src_port", "dst_port", "vc",
)
_FULL_MASK = 0xFFFFFFFF


def _shape_key(match: Match) -> tuple[tuple[str, ...], tuple] | None:
    """The (shape, key) an entry files under, or ``None`` if only the
    fallback scan can serve it (a partial metadata mask turns equality
    into a masked comparison the hash cannot express).

    The field tests are spelled out attribute by attribute: a
    ``getattr``-by-name loop over ``_HASH_FIELDS`` costs ~2x, and
    every entry installed as a loose FlowMod (delta batches, restores)
    and every strict delete goes through here."""
    md = match.metadata
    if md is not None and match.metadata_mask != _FULL_MASK:
        return None
    shape = []
    key = []
    v = match.in_port
    if v is not None:
        shape.append("in_port")
        key.append(v)
    if md is not None:
        shape.append("metadata")
        # mirror Match.matches: metadata compares under the mask
        key.append(md & _FULL_MASK)
    v = match.dst
    if v is not None:
        shape.append("dst")
        key.append(v)
    v = match.src
    if v is not None:
        shape.append("src")
        key.append(v)
    v = match.proto
    if v is not None:
        shape.append("proto")
        key.append(v)
    v = match.src_port
    if v is not None:
        shape.append("src_port")
        key.append(v)
    v = match.dst_port
    if v is not None:
        shape.append("dst_port")
        key.append(v)
    v = match.vc
    if v is not None:
        shape.append("vc")
        key.append(v)
    return tuple(shape), tuple(key)


@dataclass(slots=True)
class FlowEntry:
    """One flow-table entry."""

    priority: int
    match: Match
    instructions: tuple[Instruction, ...]
    cookie: int = 0
    # counters
    packet_count: int = 0
    byte_count: int = 0
    #: arrival serial stamped by the owning FlowTable at index time
    #: (equal-priority tie-break and tombstone key); -1 = never indexed
    serial: int = field(default=-1, compare=False)

    def hit(self, nbytes: int) -> None:
        self.packet_count += 1
        self.byte_count += nbytes


def _neg_priority(entry: FlowEntry) -> int:
    return -entry.priority


@dataclass
class FlowTable:
    """A single numbered flow table.

    Alongside the priority-ordered entry list the table keeps one
    index, the per-shape hash index. It serves packet lookups in
    O(#shapes) and strict deletes — the bulk of an incremental
    reconfiguration's delta batch — in O(bucket): a delete's match
    files under exactly one ``(shape, key)``, so its victims can only
    sit in that bucket (or, for a partial metadata mask, in the
    fallback list).
    """

    table_id: int
    _entries: list[FlowEntry] = field(default_factory=list)
    #: serials of entries strict-deleted but not yet compacted out of
    #: ``_entries``. Serials are minted by ``_next_seq`` and never
    #: reused within a table, so a tombstone can never collide with a
    #: later entry (an ``id(entry)`` key could: CPython recycles object
    #: addresses, and a new allocation landing on a dead id would be
    #: silently dropped at compaction)
    _dead: set[int] = field(init=False, repr=False, default_factory=set)
    #: hash-first lookup index: shape -> packet-key -> entries (in
    #: insertion order; may reference dead entries until compaction)
    _shapes: dict[tuple[str, ...], dict[tuple, list[FlowEntry]]] = field(
        init=False, repr=False, default_factory=dict
    )
    #: entries only the fallback scan can serve (partial metadata mask)
    _wild: list[FlowEntry] = field(init=False, repr=False, default_factory=list)
    #: next serial to stamp (monotonic; doubles as the arrival-order
    #: tie-break for equal-priority lookups)
    _next_seq: int = field(init=False, repr=False, default=0)

    def __post_init__(self) -> None:
        if self._entries:
            entries, self._entries = self._entries, []
            self.add_batch(entries)

    # --- index maintenance --------------------------------------------
    def _index_entry(self, entry: FlowEntry) -> None:
        entry.serial = self._next_seq
        self._next_seq += 1
        sk = _shape_key(entry.match)
        if sk is None:
            self._wild.append(entry)
        else:
            shape, key = sk
            self._shapes.setdefault(shape, {}).setdefault(key, []).append(entry)

    def _rebuild_index(self) -> None:
        # serials stay monotonic across rebuilds (never reset): an old
        # tombstone must never be able to name a future entry
        self._shapes = {}
        self._wild = []
        for e in self._entries:
            self._index_entry(e)

    def _compact(self) -> None:
        """Drop dead entries from the list and every index, preserving
        the stable (priority desc, arrival asc) order of survivors —
        ``entries()``/``lookup()`` results are identical before and
        after compaction."""
        if not self._dead:
            return
        dead = self._dead
        self._entries = [e for e in self._entries if e.serial not in dead]
        for shape, buckets in list(self._shapes.items()):
            for key, bucket in list(buckets.items()):
                live = [e for e in bucket if e.serial not in dead]
                if live:
                    buckets[key] = live
                else:
                    del buckets[key]
            if not buckets:
                del self._shapes[shape]
        if any(e.serial in dead for e in self._wild):
            self._wild = [e for e in self._wild if e.serial not in dead]
        self._dead.clear()

    def _maybe_compact(self) -> None:
        if (
            len(self._dead) >= COMPACT_DEAD_MIN
            and len(self._dead) >= COMPACT_DEAD_FRACTION * len(self._entries)
        ):
            self._compact()

    # --- mutation ------------------------------------------------------
    def add(self, entry: FlowEntry) -> None:
        """Insert keeping descending priority; stable for equal priority
        (later adds lose, matching OpenFlow's 'first added wins' among
        equal-priority overlapping entries as commodity switches do)."""
        if entry.serial >= 0 and entry.serial in self._dead:
            # the same object is being re-added while its previous
            # occurrence in this table is still tombstoned: compact
            # first (before insertion), or re-stamping the shared serial
            # would let the pending tombstone claim the new occurrence
            self._compact()
        insort_right(self._entries, entry, key=_neg_priority)
        self._index_entry(entry)

    def add_batch(
        self,
        entries: Iterable[FlowEntry],
        keys: Sequence[tuple[tuple[str, ...], tuple] | None] = (),
    ) -> None:
        """Insert many entries at once — one stable re-sort instead of a
        per-entry bisect, with semantics identical to sequential
        :meth:`add` calls (batch entries land *after* equal-priority
        incumbents, in batch order).

        ``keys[i]`` is the hash-index ``(shape, key)`` the ``i``-th
        entry files under — what :func:`_shape_key` returns for its
        match — for the leading ``len(keys)`` entries. A caller that
        built the matches from columns knows it without inspecting them
        (:meth:`OpenFlowSwitch.add_flow_batch` passes a rule set's);
        entries beyond ``keys`` have theirs derived from the match."""
        batch = list(entries)
        if not batch:
            return
        # threshold-gated only: a delta commit interleaves small install
        # runs with strict deletes, and a full compaction per run would
        # cost O(table) each (dead entries sort and index harmlessly —
        # every reader skips them, so none are needed for correctness)
        self._maybe_compact()
        if self._dead and any(
            e.serial >= 0 and e.serial in self._dead for e in batch
        ):
            # same re-add-while-tombstoned hazard as _index_entry
            self._compact()
        self._entries.extend(batch)
        # stable sort keeps incumbents' relative order and places the
        # (later-appended) batch after equal-priority incumbents: the
        # same order sequential add() calls would have produced
        self._entries.sort(key=_neg_priority)
        # inlined _index_entry: batch installs are the data-plane fast
        # path and the per-entry call + attribute lookups were measurable
        shapes = self._shapes
        wild = self._wild
        nseq = self._next_seq
        derived = [_shape_key(e.match) for e in batch[len(keys):]]
        for e, sk in zip(batch, [*keys, *derived]):
            e.serial = nseq
            nseq += 1
            if sk is None:
                wild.append(e)
                continue
            shape, key = sk
            buckets = shapes.get(shape)
            if buckets is None:
                buckets = shapes[shape] = {}
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [e]
            else:
                bucket.append(e)
        self._next_seq = nseq

    def remove(
        self,
        *,
        cookie: int | None = None,
        match: Match | None = None,
        priority: int | None = None,
    ) -> int:
        """Remove entries by cookie / exact match / priority (``None``
        fields are wildcards); returns count."""
        if match is not None and priority is not None:
            # strict path: the match's own (shape, key) names the only
            # bucket its victims can sit in. Victims are only *marked*
            # dead — a delta batch of hundreds of strict deletes then
            # costs O(victims), with one deferred compaction instead of
            # a list rebuild per message (buckets keep their tombstoned
            # entries until then, hence the liveness filter)
            sk = _shape_key(match)
            if sk is None:
                bucket = self._wild
            else:
                bucket = self._shapes.get(sk[0], {}).get(sk[1], ())
            dead = self._dead
            victims = [
                e.serial
                for e in bucket
                if e.priority == priority
                and e.match == match
                and (cookie is None or e.cookie == cookie)
                and e.serial not in dead
            ]
            if victims:
                dead.update(victims)
                self._maybe_compact()
            return len(victims)
        self._compact()
        before = len(self._entries)
        self._entries = [
            e
            for e in self._entries
            if not (
                (cookie is None or e.cookie == cookie)
                and (match is None or e.match == match)
                and (priority is None or e.priority == priority)
            )
        ]
        removed = before - len(self._entries)
        if removed:
            self._rebuild_index()
        return removed

    def clear(self) -> int:
        n = len(self)
        self._entries.clear()
        self._dead.clear()
        self._shapes.clear()
        self._wild.clear()
        return n

    def snapshot(self) -> tuple[FlowEntry, ...]:
        """The table's entries in priority order, as an immutable copy
        of the membership (entry objects are shared, so counters keep
        accumulating across snapshot/restore)."""
        self._compact()
        return tuple(self._entries)

    def entries(self) -> tuple[FlowEntry, ...]:
        """Alias of :meth:`snapshot`: live entries in lookup order."""
        return self.snapshot()

    def restore(self, entries: tuple[FlowEntry, ...]) -> None:
        """Replace the table's contents with a prior :meth:`snapshot`."""
        self._entries = list(entries)
        self._dead.clear()
        # snapshots are already priority-ordered; the stable sort is a
        # no-op for them and re-establishes the invariant otherwise
        self._entries.sort(key=_neg_priority)
        self._rebuild_index()

    # --- lookup --------------------------------------------------------
    def lookup(
        self, in_port: int, metadata: int, header: PacketHeader
    ) -> FlowEntry | None:
        """Highest-priority matching entry, or None (table miss)."""
        dead = self._dead
        best_rank: tuple[int, int] | None = None
        best: FlowEntry | None = None
        packet = {
            "in_port": in_port,
            "metadata": metadata & _FULL_MASK,
            "dst": header.dst,
            "src": header.src,
            "proto": header.proto,
            "src_port": header.src_port,
            "dst_port": header.dst_port,
            "vc": header.vc,
        }
        for shape, buckets in self._shapes.items():
            bucket = buckets.get(tuple(packet[f] for f in shape))
            if not bucket:
                continue
            for e in bucket:
                if dead and e.serial in dead:
                    continue
                rank = (-e.priority, e.serial)
                if best_rank is None or rank < best_rank:
                    best_rank, best = rank, e
        for e in self._wild:
            if dead and e.serial in dead:
                continue
            rank = (-e.priority, e.serial)
            if (best_rank is None or rank < best_rank) and e.match.matches(
                in_port, metadata, header
            ):
                best_rank, best = rank, e
        return best

    def __len__(self) -> int:
        return len(self._entries) - len(self._dead)

    def __iter__(self) -> Iterator[FlowEntry]:
        self._compact()
        return iter(self._entries)
