"""Structured tracing: nestable spans and events with JSONL export.

The paper's controller exposes almost nothing about *why* a
reconfiguration took the time it did; related work (FastReChain,
hybrid-OCS reconfiguration) lives and dies by measuring exactly that.
This module gives every layer of the reproduction a common journal:

* a **span** brackets one operation (``controller.deploy``,
  ``txn.commit``) and records its start/end timestamps, attributes and
  nesting;
* an **event** is a point-in-time record attached to the innermost
  open span (``txn.stage``, ``switch.packet_in``).

Nesting is per thread: a span or event parents onto the innermost span
its own thread has open, so work on the event loop and on the
scheduler's worker never cross-parent.

The trace records timing, not content: a ``txn.commit`` span carries
each switch's modeled time (``switch_times``), while the per-message
history of what reached the switches is the recovery commit journal's
(:mod:`repro.recovery.journal`).

One tracer can be installed process-wide (:func:`install_tracer`);
instrumentation sites throughout :mod:`repro` consult
:func:`active_tracer` and skip all work when none is installed, so an
untraced run pays one ``None`` check per site and nothing else.

Timestamps come from the tracer's ``clock`` — pass the simulator's
``lambda: sim.now`` for sim-time stamps. Without a clock the tracer
stamps records with a monotonic sequence counter, which still totally
orders the journal. Every record additionally carries ``seq``, a
process-order sequence number, so replay order is unambiguous even
when the clock stands still.

JSONL schema (one object per line; ``v`` = schema version):

``{"type": "span", "id": 7, "parent": 3, "name": "txn.commit",
"t0": 1.0, "t1": 1.5, "seq": 42, "status": "ok", "attrs": {...}}``

``{"type": "event", "span": 7, "name": "txn.stage", "t": 1.2,
"seq": 40, "attrs": {...}}``

Span records are appended when the span *closes*, so a parent's record
follows its children's (Chrome-trace style); sort by ``seq`` of events
or reconstruct the tree via ``parent`` ids.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, Callable

#: bumped when the record layout changes incompatibly
SCHEMA_VERSION = 1


def _jsonable(value: Any) -> Any:
    """Coerce an attribute value to something JSON-serializable."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


class Span:
    """One open span; use as a context manager or call :meth:`close`."""

    __slots__ = ("_tracer", "span_id", "parent_id", "name", "attrs",
                 "t_start", "_seq", "_closed")

    def __init__(self, tracer: "Tracer", span_id: int,
                 parent_id: int | None, name: str,
                 attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs
        self.t_start = tracer._now()
        self._seq = tracer._next_seq()
        self._closed = False

    def set(self, key: str, value: Any) -> None:
        """Attach (or overwrite) one attribute on the span."""
        self.attrs[key] = _jsonable(value)

    def event(self, name: str, **attrs: Any) -> None:
        """Record an event inside this span."""
        self._tracer._record_event(self.span_id, name, attrs)

    def close(self, status: str = "ok") -> None:
        if self._closed:
            return
        self._closed = True
        self._tracer._close_span(self, status)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close("error" if exc_type is not None else "ok")
        return False


class _NullSpan:
    """Shared do-nothing span handed out when no tracer is installed."""

    __slots__ = ()

    def set(self, key: str, value: Any) -> None:
        pass

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def close(self, status: str = "ok") -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _OpenSpans(threading.local):
    """One thread's open span ids, innermost last."""

    def __init__(self) -> None:
        self.ids: list[int] = []


class Tracer:
    """Collects span/event records; export with :meth:`dump`."""

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self.clock = clock
        self._records: list[dict] = []
        self._open = _OpenSpans()
        self._next_id = 1
        self._seq = 0

    # --- internals -----------------------------------------------------
    def _now(self) -> float:
        return float(self.clock()) if self.clock is not None else float(self._seq)

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _record_event(self, span_id: int | None, name: str,
                      attrs: dict[str, Any]) -> None:
        self._records.append({
            "type": "event",
            "span": span_id,
            "name": name,
            "t": self._now(),
            "seq": self._next_seq(),
            "attrs": {k: _jsonable(v) for k, v in attrs.items()},
        })

    def _close_span(self, span: Span, status: str) -> None:
        if self._open.ids and self._open.ids[-1] == span.span_id:
            self._open.ids.pop()
        elif span.span_id in self._open.ids:  # closed out of order: unwind
            while self._open.ids and self._open.ids.pop() != span.span_id:
                pass
        self._records.append({
            "type": "span",
            "id": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "t0": span.t_start,
            "t1": self._now(),
            "seq": span._seq,
            "status": status,
            "attrs": {k: _jsonable(v) for k, v in span.attrs.items()},
        })

    # --- recording API -------------------------------------------------
    def span(self, name: str, **attrs: Any) -> Span:
        """Open a nested span (child of the calling thread's innermost
        open span)."""
        parent = self._open.ids[-1] if self._open.ids else None
        span = Span(self, self._next_id, parent, name, dict(attrs))
        self._next_id += 1
        self._open.ids.append(span.span_id)
        return span

    def event(self, name: str, **attrs: Any) -> None:
        """Record an event on the calling thread's innermost open span
        (or unparented)."""
        parent = self._open.ids[-1] if self._open.ids else None
        self._record_event(parent, name, attrs)

    # --- query / export ------------------------------------------------
    @property
    def records(self) -> list[dict]:
        """All finished records, in emission order."""
        return list(self._records)

    def spans(self, name: str | None = None) -> list[dict]:
        return [r for r in self._records
                if r["type"] == "span" and (name is None or r["name"] == name)]

    def events(self, name: str | None = None) -> list[dict]:
        return [r for r in self._records
                if r["type"] == "event" and (name is None or r["name"] == name)]

    def dumps(self) -> str:
        """The trace as JSONL text (header line + one line per record)."""
        lines = [json.dumps({"type": "header", "v": SCHEMA_VERSION,
                             "records": len(self._records)})]
        lines.extend(json.dumps(r, sort_keys=True) for r in self._records)
        return "\n".join(lines) + "\n"

    def dump(self, path: str | Path) -> int:
        """Write the trace as JSONL; returns the record count."""
        Path(path).write_text(self.dumps())
        return len(self._records)


def load_trace(path: str | Path) -> list[dict]:
    """Read a JSONL trace back; returns records (header stripped)."""
    records = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if rec.get("type") != "header":
            records.append(rec)
    return records


def tail_jsonl(path: str | Path, offset: int = 0) -> tuple[list[dict], int]:
    """Incrementally read JSONL records starting at byte ``offset``.

    Returns ``(records, new_offset)`` where ``new_offset`` points just
    past the last *complete* record consumed — pass it back on the next
    call to tail a file another process is appending to. A torn final
    line (no trailing newline yet) is left unconsumed: it stays before
    ``new_offset``'s frontier and will be re-read once the writer
    finishes it. A complete line that is not a JSON object is corrupt,
    not torn: it raises ``ValueError`` naming its byte offset, so no
    record after it is silently dropped. Blank lines are skipped.
    Missing files read as empty.
    """
    p = Path(path)
    if not p.exists():
        return [], offset
    with p.open("rb") as fh:
        fh.seek(offset)
        data = fh.read()
    records: list[dict] = []
    cursor = offset
    for raw in data.split(b"\n"):
        advance = len(raw) + 1  # the line plus its newline
        if cursor + advance > offset + len(data):
            # final fragment with no newline yet: torn — leave it
            break
        if raw.strip():
            try:
                record = json.loads(raw.decode("utf-8"))
            except ValueError:  # UnicodeDecodeError included
                record = raw
            if not isinstance(record, dict):
                raise ValueError(
                    f"record {record!r:.60} at byte {cursor} is not a "
                    "JSON object"
                )
            records.append(record)
        cursor += advance
    return records, cursor


# --- process-wide tracer -----------------------------------------------

_ACTIVE: Tracer | None = None


def install_tracer(tracer: Tracer | None = None) -> Tracer:
    """Make ``tracer`` (or a fresh one) the process-wide tracer."""
    global _ACTIVE
    _ACTIVE = tracer if tracer is not None else Tracer()
    return _ACTIVE


def uninstall_tracer() -> Tracer | None:
    """Remove the process-wide tracer; returns it for inspection."""
    global _ACTIVE
    tracer, _ACTIVE = _ACTIVE, None
    return tracer


def active_tracer() -> Tracer | None:
    return _ACTIVE


def enabled() -> bool:
    """Whether a process-wide tracer is installed (hot paths gate on
    this so untraced runs pay only the check)."""
    return _ACTIVE is not None


def span(name: str, **attrs: Any) -> Span | _NullSpan:
    """Open a span on the installed tracer, or a no-op span."""
    if _ACTIVE is None:
        return NULL_SPAN
    return _ACTIVE.span(name, **attrs)


def event(name: str, **attrs: Any) -> None:
    """Record an event on the installed tracer, if any."""
    if _ACTIVE is not None:
        _ACTIVE.event(name, **attrs)
