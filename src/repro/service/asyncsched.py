"""Asyncio front over the fair-share scheduler (DESIGN.md §8).

The dispatch walk — per-tenant FIFO, fair-share round-robin across
tenants, one operation at a time — exists once, in
:class:`~repro.tenancy.scheduler.Scheduler`, and operation bodies run
on its worker thread. :class:`AsyncScheduler` adds what an event-loop
server needs on top of that dispatcher:

* **awaitable results** — ``submit`` is a plain call on the loop that
  returns ``asyncio.wrap_future`` of the operation's future;
  ``drain`` and ``shutdown`` are awaitable.
* **backpressure** — admitted-but-unfinished operations are bounded
  (``max_pending``); a submit over the bound raises
  :class:`BackpressureError` *before any state is touched*, carrying a
  ``retry_after`` hint derived from the queue depth and an EWMA of
  recent service times (roughly one queue-drain, not a guess).
* **a burst is queued in full before any of it runs** — a body waits
  for the loop turn that submitted it to end. The round-robin pick
  depends on which tenant queues are non-empty when an operation
  finishes; without this a fast first operation could finish while the
  loop is still submitting its siblings, and the order would follow
  thread timing. With it a churn of operations is linearized exactly
  as the same sequence through the scheduler's synchronous API (the
  churn interleaving suite asserts bit-identical final state).
"""

from __future__ import annotations

import asyncio
import threading
import time

from repro.telemetry import metrics
from repro.tenancy.scheduler import Operation, Scheduler
from repro.util.errors import ConfigurationError, ReproError

#: EWMA smoothing for per-op service time (higher = more history)
_EWMA_ALPHA = 0.25
#: retry-after floor: never tell a client to come back in 0 seconds
_MIN_RETRY_AFTER = 0.05
#: assumed service time before any operation has completed
_DEFAULT_OP_SECONDS = 0.25


class BackpressureError(ReproError):
    """The bounded queue is full; retry after ``retry_after`` seconds."""

    def __init__(self, message: str, *, retry_after: float,
                 queue_depth: int) -> None:
        super().__init__(message)
        self.retry_after = retry_after
        self.queue_depth = queue_depth


class AsyncScheduler:
    """Bounded, awaitable admission to one :class:`Scheduler`.

    ``submit`` must be called on a running event loop, and that loop
    must keep running until the returned awaitable resolves.
    """

    def __init__(self, core: Scheduler, *, max_pending: int = 64) -> None:
        if max_pending < 1:
            raise ConfigurationError(
                f"max_pending must be >= 1, got {max_pending}"
            )
        self.core = core
        self.max_pending = max_pending
        #: operations admitted here whose body has not finished yet;
        #: counted here rather than read off the dispatcher so that it
        #: has already dropped when the operation's awaiter resumes
        self.depth = 0
        self._ewma_op_seconds = _DEFAULT_OP_SECONDS
        self._lock = threading.Lock()  # bodies finish on the worker thread

    def retry_after(self, depth: int) -> float:
        """Seconds until a queue ``depth`` deep has plausibly drained:
        the backlog at the observed per-op service time, since the
        scheduler runs one operation at a time."""
        return max(_MIN_RETRY_AFTER, depth * self._ewma_op_seconds)

    def submit(self, op: Operation) -> asyncio.Future:
        """Admit one operation; returns an awaitable for its result.

        Raises :class:`BackpressureError` (touching nothing) when the
        bounded queue is full, and :class:`ConfigurationError` after
        shutdown.
        """
        depth = self.depth
        if depth >= self.max_pending:
            retry = self.retry_after(depth)
            metrics.registry().counter(
                "sdt_service_backpressure_total"
            ).inc(1, kind=op.kind)
            raise BackpressureError(
                f"service queue is full ({depth}/{self.max_pending} "
                f"operations pending); retry in {retry:.2f}s",
                retry_after=retry,
                queue_depth=depth,
            )
        turn_over = threading.Event()
        asyncio.get_running_loop().call_soon(turn_over.set)
        body = op.fn

        def fn():
            turn_over.wait()
            t0 = time.perf_counter()
            try:
                return body()
            finally:
                # before the future resolves: whoever awaits this op
                # sees a depth and a retry hint that already include it
                self._finished(op, time.perf_counter() - t0)

        op.fn = fn
        future = self.core.submit(op)
        with self._lock:  # the body cannot have finished: the turn is not over
            self.depth += 1
        metrics.registry().gauge("sdt_service_queue_depth").set(self.depth)
        return asyncio.wrap_future(future)

    def _finished(self, op: Operation, elapsed: float) -> None:
        with self._lock:
            self.depth -= 1
            self._ewma_op_seconds += _EWMA_ALPHA * (
                elapsed - self._ewma_op_seconds
            )
        reg = metrics.registry()
        reg.histogram("sdt_service_commit_seconds").observe(
            elapsed, kind=op.kind
        )
        reg.gauge("sdt_service_queue_depth").set(self.depth)

    async def drain(self, timeout: float | None = None) -> bool:
        """Wait until no operation is pending or running; False on
        timeout."""
        return await asyncio.to_thread(self.core.drain, timeout)

    async def shutdown(self) -> None:
        """Drain pending work, then stop the worker; further submits
        are refused."""
        await asyncio.to_thread(self.core.shutdown)
