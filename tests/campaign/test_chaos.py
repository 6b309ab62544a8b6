"""Chaos: a SIGKILLed worker must not sink the sweep.

The pool assigns one cell per worker at a time, so when a worker dies
the parent knows exactly which cell it was holding: that cell is
recorded as failed, a replacement worker spawns, and the sweep runs to
completion with no hang and no lost JSONL lines.
"""

import json
import multiprocessing
import os
import pickle
import signal
import struct
from contextlib import contextmanager

import pytest

from repro.campaign import CampaignSpec, run_campaign
from repro.campaign import pool as pool_module


@contextmanager
def deadline(seconds: int):
    """Fail loudly instead of hanging CI (no pytest-timeout here)."""

    def boom(signum, frame):  # pragma: no cover - only fires on a hang
        raise TimeoutError(f"sweep exceeded {seconds}s — pool hang?")

    old = signal.signal(signal.SIGALRM, boom)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def pool_spec():
    return CampaignSpec.from_dict(
        {
            "name": "chaos",
            "seed": 5,
            "topologies": [{"kind": "mesh2d", "params": {"x": 3, "y": 3}}],
            "protocols": ["precomputed", "distvec"],
            "qualities": ["ideal", "lossy"],
            "failures": ["none", "single-link"],
            "traffic": {"hosts": 3, "bytes": 8192},
        }
    )


def test_sigkilled_worker_mid_cell_does_not_hang_the_sweep(
    tmp_path, monkeypatch
):
    spec = pool_spec()
    cells = spec.expand()
    victim = cells[3].cell_id
    monkeypatch.setenv("SDT_CAMPAIGN_CHAOS_KILL", victim)
    with deadline(120):
        report = run_campaign(spec, tmp_path / "out", workers=2)
    assert report["cells_total"] == len(cells)
    assert report["cells_failed"] == 1
    assert report["failed_cells"] == [
        {"cell": victim, "error": "worker died mid-cell"}
    ]
    assert report["cells_ok"] == len(cells) - 1
    # no lost (or duplicated) JSONL lines
    lines = (tmp_path / "out" / "results.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert sorted(r["index"] for r in records) == list(range(len(cells)))


def test_worker_chaos_raise_is_per_cell_not_per_worker(
    tmp_path, monkeypatch
):
    spec = pool_spec()
    victim = spec.expand()[2].cell_id
    monkeypatch.setenv("SDT_CAMPAIGN_CHAOS_RAISE", victim)
    with deadline(120):
        report = run_campaign(spec, tmp_path / "out", workers=2)
    assert report["cells_failed"] == 1
    assert report["failed_cells"][0]["cell"] == victim
    assert "chaos" in report["failed_cells"][0]["error"]


class _DiesWhileReplying:
    """A worker's end of its pipe that, for one cell, writes only the
    first ``sent`` bytes of the framed reply and then SIGKILLs the
    worker — the instants a kill can land while the worker holds its
    result channel: before the first byte, inside the length header,
    inside the body."""

    def __init__(self, conn, victim_index: int, sent: int) -> None:
        self._conn = conn
        self._index = None
        self._victim_index = victim_index
        self._sent = sent

    def recv(self):
        self._index = self._conn.recv()
        return self._index

    def send(self, record) -> None:
        if self._index == self._victim_index:
            body = pickle.dumps(record)
            frame = struct.pack("!i", len(body)) + body
            os.write(self._conn.fileno(), frame[: self._sent])
            os.kill(os.getpid(), signal.SIGKILL)
        self._conn.send(record)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched worker entry point reaches workers by fork",
)
@pytest.mark.parametrize("sent", [0, 2, 40])
def test_worker_killed_mid_reply_breaks_only_its_own_pipe(monkeypatch, sent):
    """With one result queue shared by all workers this hangs: the
    victim dies owning the queue's write lock (or half a message), and
    every other worker blocks in ``put`` forever."""
    cells = pool_spec().expand()
    victim = cells[3]
    worker_main = pool_module._worker_main
    monkeypatch.setattr(
        pool_module,
        "_worker_main",
        lambda spec_dict, conn: worker_main(
            spec_dict, _DiesWhileReplying(conn, victim.index, sent)
        ),
    )
    pool = pool_module.CampaignPool(pool_spec().to_dict(), workers=3)
    with deadline(120):
        got = dict(pool.run(cells))
    assert sorted(got) == [cell.index for cell in cells]
    assert pool.workers_died == 1
    assert got.pop(victim.index) == pool_module.failure_record(
        victim, "worker died mid-cell"
    )
    assert {record["status"] for record in got.values()} == {"ok"}
