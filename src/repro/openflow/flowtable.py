"""Flow tables: priority-ordered match/instruction entries with counters.

A :class:`FlowTable` is one numbered table in the switch pipeline; the
switch holds a list of them. Entry capacity is enforced at the *switch*
level (hardware TCAM budgets are shared) — see
:class:`repro.openflow.switch.OpenFlowSwitch`.

A table keeps each entry **once**, in a dict keyed by the entry's
**serial** — a monotonic counter stamped on arrival and never reused —
so dict order is arrival order. Priority order is not stored: it is
computed where it is read (:meth:`FlowTable.snapshot`, iteration) by a
stable sort on priority, which over arrival order yields the documented
*(priority desc, arrival asc)* sequence. Writes therefore cost
O(entries written), whatever the table holds — an incremental
reconfiguration deletes and re-adds hundreds of single entries per
commit (:meth:`FlowTable.remove_strict`, :meth:`FlowTable.put` and
:meth:`FlowTable.add_batch`, each handed the ``(shape, key)`` the
switch computed once).

Lookup is **hash-first**: every entry whose match constrains only
exact-comparable fields (the common case — SDT synthesis emits
``in_port`` classification rules and ``(metadata, dst[, vc])`` routing
rules, all exact) is filed in a per-*shape* hash index, where a shape
is the tuple of constrained field names. A packet lookup then probes
one bucket per shape present in the table — O(#shapes), not
O(#entries) — and only entries that hash-first cannot serve (a partial
``metadata_mask``) fall back to a scan of just those entries. The
winner across probes and scan is ranked by (priority desc, serial
asc), which is exactly what a linear scan in snapshot order returns
("first added wins" among equal priorities, as commodity switches do).

The shape index is the table's **only** index, and it holds exactly
the store's members: a delete takes its victims out of the store and
out of their bucket in the same step, and drops a bucket or shape it
empties. A strict delete (priority + match given) finds its victims
through the index too — the match's own ``(shape, key)`` names the one
bucket, or the fallback list, that can hold them — so it costs
O(bucket), not O(table).

A bulk install is held as **pending rows** until something reads its
entries (:meth:`FlowTable.add_pending`): per part, a row count, the
cookie every row carries, a builder that appends the rows and their
``(shape, key)`` when called, and the serials reserved for them on
arrival. Pending serials are always newer than every stored serial —
any write that would file an entry behind them builds them first — so
building them appends to the store in arrival order and every reader
sees exactly the entries, serials and order a row-by-row install
leaves. ``len()``, :meth:`~FlowTable.cookie_counts`,
:meth:`~FlowTable.clear` and a delete that filters on the cookie alone
work on the parts as they are; every other reader (lookup, snapshot,
iteration, a strict or match delete, ``count_strict``, a loose
``add_batch``) builds them first.

Every write path ends in :meth:`~FlowTable.add_batch`,
:meth:`~FlowTable.put`, :meth:`~FlowTable.add_pending`,
``_drop_pending``, ``_unfile`` or :meth:`~FlowTable.clear`, and those
are the only places membership
changes. Each of them keeps two things in step with it:

* the **per-cookie counts** (``_cookies``: cookie -> entries, stored
  and pending, never a zero count), so
  :meth:`~FlowTable.cookie_counts` reads them instead of walking the
  store, and a cookie delete whose cookie has no stored entry left
  skips the store;
* the **mutation epoch**, a one-element list (``_epoch``) that
  anything memoising over :meth:`FlowTable.lookup` results compares
  against. Building pending rows changes no membership and touches
  neither. An
:class:`~repro.openflow.switch.OpenFlowSwitch` makes its tables share
one cell, so one comparison tells it whether *any* of them changed —
however the change arrived.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Sequence

from repro.openflow.actions import Instruction
from repro.openflow.match import Match, PacketHeader

_FULL_MASK = 0xFFFFFFFF


def _shape_key(match: Match) -> tuple[tuple[str, ...], tuple] | None:
    """The (shape, key) an entry files under, or ``None`` if only the
    fallback scan can serve it (a partial metadata mask turns equality
    into a masked comparison the hash cannot express).

    The fields a hash bucket can key on are tested one attribute at a
    time, in canonical order: a ``getattr``-by-name loop over a field
    list costs ~2x, and every entry installed as a loose FlowMod (delta
    batches, restores) and every strict delete goes through here."""
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
    #: arrival serial stamped by the owning FlowTable on every add (its
    #: key in the table's store and the equal-priority tie-break);
    #: -1 = never added
    serial: int = field(default=-1, compare=False)

    def hit(self, nbytes: int) -> None:
        self.packet_count += 1
        self.byte_count += nbytes


_priority = attrgetter("priority")

#: a hash-index ``(shape, key)``, or ``None`` for the fallback scan
IndexKey = tuple[tuple[str, ...], tuple] | None
#: an index key not yet computed (``None`` is a key: the fallback scan)
_UNKEYED = object()
#: appends a part's rows to ``entries`` and their index keys to ``keys``
RowBuilder = Callable[[list[FlowEntry], list[IndexKey]], None]


@dataclass
class FlowTable:
    """A single numbered flow table.

    One store (serial -> entry, in arrival order) and one index, the
    per-shape hash index. The index serves packet lookups in
    O(#shapes) and strict deletes — the bulk of an incremental
    reconfiguration's delta batch — in O(bucket): a delete's match
    files under exactly one ``(shape, key)``, so its victims can only
    sit in that bucket (or, for a partial metadata mask, in the
    fallback list). Bulk installs wait, unbuilt, in ``_pending`` until
    a reader needs their entries (see the module docstring).
    """

    table_id: int
    #: every entry exactly once, keyed by its serial; serials only grow,
    #: so insertion order is arrival order
    _store: dict[int, FlowEntry] = field(
        init=False, repr=False, default_factory=dict
    )
    #: hash-first lookup index: shape -> packet-key -> entries (in
    #: arrival order; never an empty bucket or shape)
    _shapes: dict[tuple[str, ...], dict[tuple, list[FlowEntry]]] = field(
        init=False, repr=False, default_factory=dict
    )
    #: entries only the fallback scan can serve (partial metadata mask)
    _wild: list[FlowEntry] = field(init=False, repr=False, default_factory=list)
    #: rows installed but not built: ``(first serial, rows, cookie,
    #: build)`` per part, in arrival order, every serial above the store's
    _pending: list[tuple[int, int, int, RowBuilder]] = field(
        init=False, repr=False, default_factory=list
    )
    #: rows across ``_pending``
    _pending_rows: int = field(init=False, repr=False, default=0)
    #: entries per cookie, stored and pending (no zero counts)
    _cookies: dict[int, int] = field(
        init=False, repr=False, default_factory=dict
    )
    #: next serial to stamp (monotonic for the table's lifetime)
    _next_seq: int = field(init=False, repr=False, default=0)
    #: mutation epoch cell: ``_epoch[0]`` grows on every membership
    #: change; the owning switch swaps in a cell shared by its tables
    _epoch: list[int] = field(
        init=False, repr=False, compare=False, default_factory=lambda: [0]
    )

    # --- mutation ------------------------------------------------------
    def add(self, entry: FlowEntry) -> None:
        """Insert one entry. It ranks after every equal-priority
        incumbent (OpenFlow's 'first added wins' among equal-priority
        overlapping entries, as commodity switches do)."""
        self.put(entry, _shape_key(entry.match))

    def add_batch(
        self,
        entries: Iterable[FlowEntry],
        keys: Sequence[IndexKey] | None = None,
    ) -> None:
        """Insert entries in order; each is stamped with the next serial
        and filed once in the store and once in the index, under the
        ``(shape, key)`` its match gives — ``keys``, if the caller holds
        them already. Pending rows are built first: they arrived
        earlier, so they keep the lower serials."""
        batch = list(entries)
        self._epoch[0] += 1
        if self._pending:
            self._materialize()
        counts = self._cookies
        for e in batch:
            counts[e.cookie] = counts.get(e.cookie, 0) + 1
        if keys is None:
            keys = [_shape_key(e.match) for e in batch]
        self._next_seq = self._file(batch, keys, self._next_seq)

    def put(self, entry: FlowEntry, sk: IndexKey) -> None:
        """Insert one entry whose match files under ``sk`` — its
        :func:`_shape_key`, which the caller already holds. Same effect
        as :meth:`add`."""
        self._epoch[0] += 1
        if self._pending:
            self._materialize()
        counts = self._cookies
        counts[entry.cookie] = counts.get(entry.cookie, 0) + 1
        self._next_seq = self._file((entry,), (sk,), self._next_seq)

    def add_pending(self, parts: Iterable[tuple[int, int, RowBuilder]]) -> None:
        """Install ``(rows, cookie, build)`` parts in order without
        building them: each reserves the next ``rows`` serials, and
        ``build`` is called — with the lists to append its entries and
        their index keys to — only when a reader needs the entries.
        ``build`` must append exactly ``rows`` entries, each carrying
        ``cookie``."""
        self._epoch[0] += 1
        nseq = self._next_seq
        pending = self._pending
        counts = self._cookies
        for rows, cookie, build in parts:
            if rows:
                pending.append((nseq, rows, cookie, build))
                counts[cookie] = counts.get(cookie, 0) + rows
                nseq += rows
        self._pending_rows += nseq - self._next_seq
        self._next_seq = nseq

    def _materialize(self) -> None:
        """Build every pending row into an entry filed under the serial
        reserved for it. Members do not change, so the epoch stays."""
        pending = self._pending
        self._pending = []
        self._pending_rows = 0
        for serial, _rows, _cookie, build in pending:
            entries: list[FlowEntry] = []
            keys: list[IndexKey] = []
            build(entries, keys)
            self._file(entries, keys, serial)

    def _file(
        self, entries: list[FlowEntry], keys: Sequence[IndexKey], serial: int
    ) -> int:
        """Stamp ``entries`` with serials from ``serial`` on and file
        each in the store and under its key; returns the next serial."""
        store = self._store
        shapes = self._shapes
        wild = self._wild
        for e, sk in zip(entries, keys):
            e.serial = serial
            store[serial] = e
            serial += 1
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
        return serial

    def remove(
        self,
        *,
        cookie: int | None = None,
        match: Match | None = None,
        priority: int | None = None,
    ) -> int:
        """Remove entries by cookie / exact match / priority (``None``
        fields are wildcards); returns count. A delete that filters on
        the cookie alone drops matching pending parts unbuilt."""
        if match is not None and priority is not None:
            return self.remove_strict(match, priority, cookie, _shape_key(match))
        dropped = 0
        if match is None and priority is None:
            dropped = self._drop_pending(cookie)
            if cookie is not None and cookie not in self._cookies:
                return dropped  # no stored entry carries it
        elif self._pending:
            self._materialize()
        victims = [
            e
            for e in self._store.values()
            if (cookie is None or e.cookie == cookie)
            and (match is None or e.match == match)
            and (priority is None or e.priority == priority)
        ]
        for e in victims:
            self._unfile(e, _shape_key(e.match))
        return dropped + len(victims)

    def remove_strict(
        self, match: Match, priority: int, cookie: int | None, sk: IndexKey
    ) -> int:
        """A strict :meth:`remove` (``cookie`` may be ``None``) whose
        match files under ``sk``: its victims are found in that one
        bucket, and leave it by that key. Returns the count."""
        if self._pending:
            self._materialize()
        victims = self._strict_victims(match, priority, cookie, sk)
        for e in victims:
            self._unfile(e, sk)
        return len(victims)

    def _drop_pending(self, cookie: int | None) -> int:
        """Drop the pending parts carrying ``cookie`` (``None`` = all);
        returns the rows dropped."""
        kept = []
        dropped = 0
        for part in self._pending:
            if cookie is not None and part[2] != cookie:
                kept.append(part)
            else:
                dropped += part[1]
                self._uncount(part[2], part[1])
        if dropped:
            self._epoch[0] += 1
            self._pending = kept
            self._pending_rows -= dropped
        return dropped

    def count_strict(
        self,
        *,
        match: Match,
        priority: int,
        cookie: int | None = None,
        sk: IndexKey | object = _UNKEYED,
    ) -> int:
        """How many entries a strict :meth:`remove` with these filters
        would take, found the same way, without removing them. ``sk``
        is the match's (shape, key), if the caller holds it."""
        if self._pending:
            self._materialize()
        if sk is _UNKEYED:
            sk = _shape_key(match)
        return len(self._strict_victims(match, priority, cookie, sk))

    def _strict_victims(
        self, match: Match, priority: int, cookie: int | None, sk: IndexKey
    ) -> list[FlowEntry]:
        """A strict delete's victims: the match's own (shape, key),
        ``sk``, names the only bucket (or the fallback list) they can
        sit in."""
        if sk is None:
            candidates: Iterable[FlowEntry] = self._wild
        else:
            candidates = self._shapes.get(sk[0], {}).get(sk[1], ())
        return [
            e
            for e in candidates
            if (cookie is None or e.cookie == cookie)
            and e.match == match
            and e.priority == priority
        ]

    def _unfile(self, entry: FlowEntry, sk: IndexKey) -> None:
        """Take one member out of the store and out of its bucket,
        ``sk`` (the (shape, key) its match files under)."""
        self._epoch[0] += 1
        del self._store[entry.serial]
        self._uncount(entry.cookie, 1)
        if sk is None:
            bucket = self._wild
        else:
            shape, key = sk
            buckets = self._shapes[shape]
            bucket = buckets[key]
        # by identity: equal-valued twins may share the bucket
        bucket[:] = [e for e in bucket if e is not entry]
        if sk is not None and not bucket:
            del buckets[key]
            if not buckets:
                del self._shapes[shape]

    def _uncount(self, cookie: int, n: int) -> None:
        left = self._cookies[cookie] - n
        if left:
            self._cookies[cookie] = left
        else:
            del self._cookies[cookie]

    def clear(self) -> int:
        n = len(self)
        self._epoch[0] += 1
        self._cookies.clear()
        self._store.clear()
        self._shapes.clear()
        self._wild.clear()
        self._pending.clear()
        self._pending_rows = 0
        return n

    def snapshot(self) -> tuple[FlowEntry, ...]:
        """The table's entries in (priority desc, arrival asc) order, as
        an immutable copy of the membership (entry objects are shared,
        so counters keep accumulating across snapshot/restore)."""
        if self._pending:
            self._materialize()
        return tuple(sorted(self._store.values(), key=_priority, reverse=True))

    def entries(self) -> tuple[FlowEntry, ...]:
        """Alias of :meth:`snapshot`: entries in lookup order."""
        return self.snapshot()

    def restore(self, entries: tuple[FlowEntry, ...]) -> None:
        """Replace the table's contents with a prior :meth:`snapshot`
        (its entries arrive afresh, in the snapshot's order)."""
        self.clear()
        self.add_batch(entries)

    def cookie_counts(self) -> Counter[int]:
        """Entries per cookie, stored and pending (a copy of the counts
        every write keeps; nothing is walked or built)."""
        return Counter(self._cookies)

    # --- lookup --------------------------------------------------------
    def lookup(
        self, in_port: int, metadata: int, header: PacketHeader
    ) -> FlowEntry | None:
        """Highest-priority matching entry, or None (table miss)."""
        if self._pending:
            self._materialize()
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
                rank = (-e.priority, e.serial)
                if best_rank is None or rank < best_rank:
                    best_rank, best = rank, e
        for e in self._wild:
            rank = (-e.priority, e.serial)
            if (best_rank is None or rank < best_rank) and e.match.matches(
                in_port, metadata, header
            ):
                best_rank, best = rank, e
        return best

    def __len__(self) -> int:
        return len(self._store) + self._pending_rows

    def __iter__(self) -> Iterator[FlowEntry]:
        return iter(self.snapshot())


def remove_from_tables(
    tables: Sequence[FlowTable],
    *,
    cookie: int | None = None,
    table_id: int | None = None,
    priority: int | None = None,
    match: Match | None = None,
) -> int:
    """What a FlowDelete does to a pipeline's tables: remove entries
    matching every given filter from table ``table_id`` (``None`` =
    every table); all-``None`` filters clear the selected table(s).
    Returns entries removed. The switch and journal replay both delete
    through here, so a replayed delete cannot drift from a live one."""
    strict = not (cookie is None and priority is None and match is None)
    removed = 0
    for tid, t in enumerate(tables):
        if table_id is not None and tid != table_id:
            continue
        removed += (
            t.remove(cookie=cookie, match=match, priority=priority)
            if strict
            else t.clear()
        )
    return removed
