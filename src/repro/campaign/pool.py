"""A kill-tolerant process pool for campaign cells.

``concurrent.futures.ProcessPoolExecutor`` is the wrong tool here: one
SIGKILLed worker raises ``BrokenProcessPool`` and abandons every
pending future, which would abort a 1000-cell sweep because one cell
segfaulted. This pool instead gives each worker its **own** duplex
pipe and assigns one cell at a time, so the parent always knows exactly
which cell a dead worker was holding: that cell is recorded as failed
(never silently retried — it might be the poison) and a replacement
worker is spawned to keep the sweep's parallelism.

Nothing is shared between workers: a worker killed at any instant —
mid-cell, mid-way through writing its result — can only break its own
pipe, which the parent reads as end-of-file. (A result queue shared by
all workers cannot promise that: a worker killed while holding the
queue's write lock blocks every other worker's ``put`` forever.)

Workers receive the *spec* (a plain dict) and re-expand it locally, so
nothing richer than ints and dicts ever crosses a pipe — the same
trick :mod:`repro.core.rules` plays for sharded compilation.

Chaos hooks (used by the chaos tests, honored in workers only):

* ``SDT_CAMPAIGN_CHAOS_KILL=<cell_id>`` — SIGKILL the worker the
  moment it picks up that cell;
* ``SDT_CAMPAIGN_CHAOS_RAISE=<cell_id>`` — raise inside the cell
  (also honored by inline runs; exercises the per-cell failure path).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import traceback
from collections import deque
from multiprocessing.connection import Connection, wait
from typing import Iterator

from repro.campaign.spec import CampaignCell


def failure_record(cell: CampaignCell, error: str) -> dict:
    """The record a cell leaves behind when it didn't finish."""
    return {
        "cell": cell.cell_id,
        "index": cell.index,
        "status": "failed",
        "protocol": cell.protocol,
        "quality": cell.quality.get("name", "custom"),
        "failure": cell.failure,
        "seed": cell.seed,
        "error": error,
    }


def safe_run(cell: CampaignCell) -> dict:
    """Run one cell, converting any exception into a failure record."""
    from repro.campaign.runner import run_cell

    chaos = os.environ.get("SDT_CAMPAIGN_CHAOS_RAISE", "")
    try:
        if chaos and cell.cell_id == chaos:
            raise RuntimeError("chaos: injected cell failure")
        return run_cell(cell)
    except Exception as exc:  # noqa: BLE001 - the sweep must survive
        detail = traceback.format_exc(limit=-1).strip().splitlines()[-1]
        return failure_record(cell, f"{type(exc).__name__}: {exc} ({detail})")


def _worker_main(spec_dict: dict, conn: Connection) -> None:
    from repro.campaign.spec import CampaignSpec

    cells = CampaignSpec.from_dict(spec_dict).expand()
    chaos_kill = os.environ.get("SDT_CAMPAIGN_CHAOS_KILL", "")
    while True:
        index = conn.recv()
        if index is None:
            return
        cell = cells[index]
        if chaos_kill and cell.cell_id == chaos_kill:
            os.kill(os.getpid(), signal.SIGKILL)
        conn.send(safe_run(cell))


class _Worker:
    __slots__ = ("proc", "conn", "current")

    def __init__(self, ctx, spec_dict: dict) -> None:
        self.conn, child_conn = ctx.Pipe()
        self.current: int | None = None
        self.proc = ctx.Process(
            target=_worker_main, args=(spec_dict, child_conn), daemon=True
        )
        self.proc.start()
        # the worker holds the only other end: its death is our EOF
        child_conn.close()

    def send(self, message: int | None) -> None:
        try:
            self.conn.send(message)
        except OSError:
            pass  # already dead: its sentinel reports it

    def result(self) -> dict | None:
        """The finished cell's record; None when the worker died with
        the cell (nothing, or only part of a record, in its pipe)."""
        try:
            # poll() is true at end-of-file too; recv() then raises
            return self.conn.recv() if self.conn.poll() else None
        except (EOFError, OSError):
            return None


class CampaignPool:
    """Shard cells across processes; tolerate worker death."""

    def __init__(self, spec_dict: dict, workers: int) -> None:
        if workers < 2:
            raise ValueError("CampaignPool needs >= 2 workers; run inline")
        methods = mp.get_all_start_methods()
        self._ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        self._spec_dict = spec_dict
        self._num_workers = workers
        self.workers_died = 0

    def run(
        self, cells: list[CampaignCell]
    ) -> Iterator[tuple[int, dict]]:
        """Yield ``(cell index, record)`` as cells finish (any order)."""
        by_index = {cell.index: cell for cell in cells}
        pending = deque(cell.index for cell in cells)
        workers = [
            _Worker(self._ctx, self._spec_dict)
            for _ in range(min(self._num_workers, max(1, len(pending))))
        ]
        try:
            while True:
                # hand a cell to every idle worker, replacing dead ones
                for i, worker in enumerate(workers):
                    if pending and worker.current is None:
                        if not worker.proc.is_alive():
                            worker.conn.close()
                            worker = workers[i] = _Worker(
                                self._ctx, self._spec_dict
                            )
                        worker.current = pending.popleft()
                        worker.send(worker.current)
                busy = [w for w in workers if w.current is not None]
                if not busy:
                    return
                ready = set(
                    wait([x for w in busy for x in (w.conn, w.proc.sentinel)])
                )
                for worker in busy:
                    if ready.isdisjoint((worker.conn, worker.proc.sentinel)):
                        continue
                    index, worker.current = worker.current, None
                    record = worker.result()
                    if record is None:
                        # its pipe is closed or cut short, yet the
                        # process may still be exiting: reap it, so the
                        # next hand-out sees it dead and replaces it
                        worker.proc.kill()
                        worker.proc.join()
                        self.workers_died += 1
                        record = failure_record(
                            by_index[index], "worker died mid-cell"
                        )
                    yield (index, record)
        finally:
            for worker in workers:
                if worker.proc.is_alive():
                    worker.send(None)
            for worker in workers:
                worker.proc.join(timeout=2.0)
                if worker.proc.is_alive():  # pragma: no cover - stuck worker
                    worker.proc.terminate()
                worker.conn.close()
