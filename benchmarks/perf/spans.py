"""Span plumbing for the performance ledger.

Spans are recorded from the benchmark's own files, around calls into
each layer's public functions — nothing under ``src/`` knows it is
being measured. Two ways to open one:

* :meth:`Recorder.timed` / :meth:`Recorder.span` for stages the
  workload drives by hand (a public split exists);
* :meth:`Recorder.wrap` for callables the product calls itself: the
  name is rebound *at its use site* (a class attribute, a module global
  such as ``repro.core.controller.controller.diff_topologies``, or a
  mapping entry) to a recording wrapper, and the original is always put
  back when the ``with`` block exits.

A span is ``(name, start, end, parent, op)``; ``parent`` indexes
:attr:`Recorder.spans` (``-1`` for a root) and ``op`` is the id of the
benchmark operation that caused it. A layer's *self time* is its span's
duration minus the part its child spans cover, so the self times of one
operation add up to the operation (no double counting).

Per-packet callables (``OpenFlowSwitch.forward``, ``FlowTable.lookup``)
are wrapped ``hot``: they take part in parent/child accounting but are
folded into one running total per name instead of one record per call,
which keeps the trace small and the wrapper cheap. ``count_only``
wrappers keep a call count and take no clock reading at all.

Everything stays in memory until :meth:`Recorder.dump` writes the JSONL
trace when the benchmark ends.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator, NamedTuple

TRACE_SCHEMA = 1


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    op: int


class Recorder:
    """Collects spans; a disabled recorder calls straight through."""

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span | None] = []
        #: name -> [calls, total seconds, self seconds], every span kind
        self.totals: dict[str, list] = {}
        #: name -> calls, for ``count_only`` wrappers
        self.counts: dict[str, int] = {}
        #: id of the operation now running (-1 between operations)
        self.op = -1
        self._lock = threading.Lock()
        self._local = threading.local()

    # --- frame stack (one per thread) -----------------------------------
    def _frames(self) -> list[list]:
        """This thread's open frames, each ``[child seconds, span
        index]``; the bottom frame is a sentinel root."""
        try:
            return self._local.frames
        except AttributeError:
            frames = self._local.frames = [[0.0, -1]]
            return frames

    def _close(
        self, name: str, start: float, frame: list, frames: list[list]
    ) -> float:
        end = perf_counter()
        frames.pop()
        duration = end - start
        frames[-1][0] += duration
        with self._lock:  # service workers close spans concurrently
            total = self.totals.setdefault(name, [0, 0.0, 0.0])
            total[0] += 1
            total[1] += duration
            total[2] += duration - frame[0]
        return end

    # --- hand-driven stages ----------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        frames = self._frames()
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)
        frame = [0.0, index]
        parent = frames[-1][1]
        frames.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            end = self._close(name, start, frame, frames)
            self.spans[index] = Span(name, start, end, parent, self.op)

    def timed(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` inside a span named ``name``."""
        with self.span(name):
            return fn(*args, **kwargs)

    # --- wrap-and-restore -------------------------------------------------
    def _recording(self, fn: Callable, name: str, hot: bool) -> Callable:
        if not hot:
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)

            return wrapper

        def hot_wrapper(*args, **kwargs):
            frames = self._frames()
            # a hot frame has no record of its own: spans opened under
            # it hang off the nearest recorded ancestor
            frame = [0.0, frames[-1][1]]
            frames.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, start, frame, frames)

        return hot_wrapper

    def _counting(self, fn: Callable, name: str) -> Callable:
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def wrap(
        self,
        owner: Any,
        key: str,
        name: str,
        *,
        hot: bool = False,
        count_only: bool = False,
    ) -> Iterator[None]:
        """Rebind ``owner.key`` (or ``owner[key]`` for a mapping) to a
        recording wrapper for the duration of the block.

        ``owner`` must define ``key`` itself — an inherited or missing
        name raises instead of silently measuring nothing. Properties
        are wrapped through their getter.
        """
        if not self.enabled:
            yield
            return
        is_mapping = isinstance(owner, dict)
        namespace = owner if is_mapping else vars(owner)
        if key not in namespace:
            raise AttributeError(
                f"cannot wrap {key!r}: {owner!r} does not define it"
            )
        original = namespace[key]
        target = original.fget if isinstance(original, property) else original
        if isinstance(target, (staticmethod, classmethod)) or not callable(target):
            raise TypeError(
                f"cannot wrap {key!r} on {owner!r}: need a plain function, "
                "method or property"
            )
        wrapped = (
            self._counting(target, name)
            if count_only
            else self._recording(target, name, hot)
        )
        if isinstance(original, property):
            wrapped = property(wrapped, original.fset, original.fdel)

        def bind(value: Any) -> None:
            if is_mapping:
                owner[key] = value
            else:
                setattr(owner, key, value)

        bind(wrapped)
        try:
            yield
        finally:
            bind(original)

    # --- reduction --------------------------------------------------------
    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def total_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def calls(self, name: str) -> int:
        if name in self.counts:
            return self.counts[name]
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def stage_table(self) -> list[tuple]:
        """``(name, self seconds, share of all self time, calls)`` rows,
        largest self time first."""
        rows = [
            (name, total[2], total[0]) for name, total in self.totals.items()
        ]
        whole = sum(self_s for _, self_s, _ in rows) or 1.0
        return [
            (name, self_s, self_s / whole, calls)
            for name, self_s, calls in sorted(rows, key=lambda r: -r[1])
        ]

    def dump(self, path: str | Path) -> int:
        """Write the trace as JSONL; returns the number of lines."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = [json.dumps({"schema": TRACE_SCHEMA, "kind": "header"})]
        for index, span in enumerate(self.spans):
            if span is None:  # still open: the benchmark died mid-span
                continue
            lines.append(json.dumps({
                "kind": "span", "id": index, "name": span.name,
                "start": span.start, "end": span.end,
                "parent": span.parent, "op": span.op,
            }))
        for name, (calls, total_s, self_s) in sorted(self.totals.items()):
            lines.append(json.dumps({
                "kind": "total", "name": name, "calls": calls,
                "total_s": total_s, "self_s": self_s,
            }))
        for name, calls in sorted(self.counts.items()):
            lines.append(json.dumps(
                {"kind": "count", "name": name, "calls": calls}
            ))
        path.write_text("\n".join(lines) + "\n")
        return len(lines)

