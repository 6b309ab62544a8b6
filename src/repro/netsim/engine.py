"""The discrete-event engine.

Events run in ``(fire time, schedule order)`` order — same-timestamp
events run in the order they were scheduled (the determinism every
experiment here depends on). The queue stores that order directly: a
binary heap of the *distinct* fire times, plus one FIFO bucket per fire
time holding ``(fn, args, schedule time)`` in arrival order. Scheduling
is a dict probe and an append (a heap push only for an instant nobody
has scheduled at yet), and ``run`` drains one bucket per heap pop; an
event scheduled *at the instant being drained* joins the live bucket
and runs after everything already in it, which is where a global
sequence number would have put it.

An event is a callable plus its positional arguments —
``schedule(delay, port.enqueue, packet, queue)`` runs
``port.enqueue(packet, queue)`` — so the hot paths hand over a bound
method instead of allocating a closure per event; ``schedule(delay, fn)``
with no arguments is the same call.

The engine also counts events processed, which the testbed harness uses
as the machine-independent measure of simulation work (Table IV's
"simulator evaluation time" scales with it).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.telemetry import metrics, trace
from repro.util.errors import SimulationError

#: power-of-two-ish buckets for the event-queue depth histogram
_DEPTH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
                  1024.0, 4096.0, 16384.0)

_INF = float("inf")


class Simulator:
    """Event loop with simulated-time bookkeeping."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self.events_processed: int = 0
        #: heap of the distinct fire times that have a bucket
        self._times: list[float] = []
        # fire time -> [(fn, args, schedule time)] in schedule order (a
        # list read front to back, never popped: half the cost of a
        # deque for the one-event bucket most instants are); schedule
        # time feeds the queue-residency histogram when telemetry is on
        self._buckets: dict[float, list[tuple[Callable[..., Any], tuple, float]]] = {}
        self._pending = 0
        self._running = False

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` ``delay`` seconds from now (0 <= delay < inf)."""
        # NaN and inf fail too: NaN is a key no pop reaches, and inf
        # would drag ``now`` to infinity for everything behind it
        if not 0.0 <= delay < _INF:
            raise SimulationError(f"negative or non-finite delay {delay!r}")
        now = self.now
        time = now + delay
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [(fn, args, now)]
            heapq.heappush(self._times, time)
        else:
            bucket.append((fn, args, now))
        self._pending += 1

    def at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` at exactly simulated time ``time`` (now, if
        that is already past)."""
        if not -_INF < time < _INF:
            raise SimulationError(f"event time {time!r} is not a finite time")
        now = self.now
        if time < now:
            time = now
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [(fn, args, now)]
            heapq.heappush(self._times, time)
        else:
            bucket.append((fn, args, now))
        self._pending += 1

    @property
    def pending(self) -> int:
        return self._pending

    def run(self, *, until: float | None = None, max_events: int | None = None) -> float:
        """Drain the event queue; returns the final simulated time.

        ``until`` stops the clock at that simulated time (remaining
        events stay queued); ``max_events`` guards against runaway
        feedback loops (raises :class:`SimulationError` before
        processing event ``max_events + 1``, so exactly ``max_events``
        events run).
        """
        if self._running:
            raise SimulationError("Simulator.run() re-entered")
        self._running = True
        # telemetry is sampled once per run(): the per-event cost while
        # untraced is a single None check
        depth_hist = residency_hist = None
        if trace.enabled():
            reg = metrics.registry()
            depth_hist = reg.histogram(
                "sdt_netsim_event_depth", buckets=_DEPTH_BUCKETS
            )
            residency_hist = reg.histogram(
                "sdt_netsim_queue_residency_seconds"
            )
        times, buckets = self._times, self._buckets
        limit = max_events if max_events is not None else _INF
        taken = 0  # events this call took off the queue
        try:
            while times:
                time = times[0]
                if until is not None and time > until:
                    self.now = until
                    break
                bucket = buckets[time]
                first = taken
                try:
                    # the iterator sees what callbacks append to the
                    # live bucket, so same-instant events run last
                    for fn, args, sched_at in bucket:
                        if taken >= limit:
                            raise SimulationError(
                                f"event budget exhausted at t={self.now:.6f}s "
                                f"({self.events_processed} events; likely livelock)"
                            )
                        taken += 1
                        self.now = time
                        if depth_hist is not None:
                            depth_hist.observe(self._pending)
                            residency_hist.observe(time - sched_at)
                        self._pending -= 1
                        fn(*args)
                        self.events_processed += 1
                finally:
                    # nothing a callback schedules fires before ``time``,
                    # so it is still the heap's top; a bucket cut short
                    # (the budget, a raising callback) keeps what it has
                    # left for the next run()
                    done = taken - first
                    if done == len(bucket):
                        heapq.heappop(times)
                        del buckets[time]
                    else:
                        del bucket[:done]
            return self.now
        finally:
            self._running = False
