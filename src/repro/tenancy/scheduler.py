"""Deterministic fair-share scheduling of tenant control-plane operations.

The shared pool has one control program: every operation body runs
the single-threaded :class:`SDTController` under the testbed service's
lock, so no two operations can make progress at once. The scheduler
says so. It turns the tenants' concurrent requests into one serial
execution:

* **FIFO per tenant** — one tenant's operations run in the order it
  submitted them (a reconfigure never overtakes the deploy it edits);
* **fair share across tenants** — the next operation is the queue head
  of the next tenant, round-robin in admission order, so a tenant
  queueing 50 deploys cannot starve one queueing a single request; a
  tenant leaves the rotation once its session-ending operation
  (``evict`` / ``close``) starts with nothing else of it queued, and
  joins again at the end if it comes back;
* **one at a time** — operations run one after another on one worker
  thread, off the caller's thread, so an asyncio front keeps serving
  while an operation runs.

The execution order is therefore a pure function of the submission
order and of which tenant queues are non-empty when an operation ends.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.telemetry import metrics, trace
from repro.util.errors import ConfigurationError


#: the operation kinds that end a tenant's session
SESSION_END_KINDS = frozenset({"evict", "close"})


@dataclass
class Operation:
    """One schedulable unit of tenant work."""

    kind: str  # "deploy" | "reconfigure" | "undeploy" | "evict" | "close"
    tenant_id: str
    fn: Callable[[], Any]
    seq: int = -1  # global submission stamp, set by the scheduler
    future: Future = field(default_factory=Future)


class Scheduler:
    """Per-tenant FIFO with a round-robin fair-share pick, run one
    operation at a time on one worker thread."""

    def __init__(self) -> None:
        self._executor = ThreadPoolExecutor(1, thread_name_prefix="sdt-tenant")
        self._lock = threading.Lock()
        self._pending: dict[str, deque[Operation]] = {}
        self._tenant_order: list[str] = []
        self._rr = 0  # round-robin cursor into _tenant_order
        self._running: Operation | None = None
        self._next_seq = 0
        self._idle = threading.Condition(self._lock)
        self._shutdown = False

    # --- submission ------------------------------------------------------
    def submit(self, op: Operation) -> Future:
        """Queue an operation; returns its future. It starts at once
        if nothing is running."""
        with self._lock:
            if self._shutdown:
                raise ConfigurationError("scheduler is shut down")
            op.seq = self._next_seq
            self._next_seq += 1
            if op.tenant_id not in self._pending:
                self._pending[op.tenant_id] = deque()
                self._tenant_order.append(op.tenant_id)
            self._pending[op.tenant_id].append(op)
            metrics.registry().counter("tenant_ops_submitted_total").inc(
                1, kind=op.kind
            )
            self._dispatch_locked()
        return op.future

    # --- dispatch --------------------------------------------------------
    def _dispatch_locked(self) -> None:
        """Start the next operation if none is running (caller holds
        the lock): the queue head of the first tenant with work, walking
        round-robin from the fair-share cursor. A tenant whose session
        ends with the operation started here, and who has nothing else
        queued, leaves the books; the tenant after it slides into its
        place, which the cursor then names, so the walk over the
        tenants still queued is the one it would have been."""
        if self._running is not None:
            return
        order = self._tenant_order
        n = len(order)
        for i in range(n):
            pos = (self._rr + i) % n
            tenant = order[pos]
            queue = self._pending[tenant]
            if not queue:
                continue
            self._running = queue.popleft()
            if queue or self._running.kind not in SESSION_END_KINDS:
                self._rr = (pos + 1) % n
            else:
                del self._pending[tenant]
                del order[pos]
                self._rr = pos % (n - 1) if n > 1 else 0
            self._executor.submit(self._run, self._running)
            return

    def _run(self, op: Operation) -> None:
        with trace.span(
            "tenant.op", tenant=op.tenant_id, kind=op.kind, seq=op.seq
        ):
            try:
                result = op.fn()
            except BaseException as exc:  # delivered via the future
                op.future.set_exception(exc)
                metrics.registry().counter("tenant_ops_finished_total").inc(
                    1, kind=op.kind, status="error"
                )
            else:
                op.future.set_result(result)
                metrics.registry().counter("tenant_ops_finished_total").inc(
                    1, kind=op.kind, status="ok"
                )
        with self._lock:
            self._running = None
            self._dispatch_locked()
            if self._running is None:
                self._idle.notify_all()

    # --- lifecycle -------------------------------------------------------
    def drain(self, timeout: float | None = None) -> bool:
        """Block until every submitted operation has finished; returns
        False on timeout."""
        with self._idle:
            return self._idle.wait_for(
                lambda: self._running is None, timeout=timeout
            )

    def shutdown(self) -> None:
        """Drain and stop the worker; further submits are refused."""
        self.drain()
        with self._lock:
            self._shutdown = True
        self._executor.shutdown(wait=True)

    @property
    def queue_depths(self) -> dict[str, int]:
        with self._lock:
            return {t: len(q) for t, q in self._pending.items() if q}
