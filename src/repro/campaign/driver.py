"""The campaign driver: expand, shard, stream, summarize.

``run_campaign`` is the one entry point: it expands the spec into
cells, runs them inline (``workers <= 1``) or through the
kill-tolerant :class:`~repro.campaign.pool.CampaignPool`, streams every
record to ``results.jsonl`` the moment it lands (a killed sweep loses
at most the in-flight cells), and writes the deterministic
``report.json`` at the end. ``workers`` is the one way to ask for
processes; without it the sweep runs inline.

Per-cell failures — exceptions, chaos injections, dead workers — are
*recorded*, not fatal: the sweep always completes and the report
counts them under ``cells_failed``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable

from repro.campaign.pool import CampaignPool, safe_run
from repro.campaign.report import render_report, summarize
from repro.campaign.spec import CampaignSpec
from repro.telemetry import metrics
from repro.util.errors import ConfigurationError

__all__ = ["resolve_workers", "run_campaign"]


def resolve_workers(workers: int | None = None) -> int:
    """The explicit argument (floored at 1), else inline (1)."""
    return 1 if workers is None else max(1, int(workers))


def run_campaign(
    spec: CampaignSpec,
    out_dir: str | Path,
    *,
    workers: int | None = None,
    limit: int | None = None,
    progress: Callable[[int, int, dict], None] | None = None,
) -> dict:
    """Run the sweep; returns the report dict (also written to disk)."""
    workers = resolve_workers(workers)
    cells = spec.expand()
    if limit is not None:
        cells = cells[: max(0, limit)]
    if not cells:
        raise ConfigurationError("campaign expanded to zero cells")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "spec.json").write_text(
        json.dumps(spec.to_dict(), indent=2, sort_keys=True) + "\n"
    )

    reg = metrics.registry()
    cells_counter = reg.counter("sdt_campaign_cells_total")
    records: list[dict] = []
    results_path = out / "results.jsonl"
    with results_path.open("w") as stream:

        def emit(record: dict) -> None:
            # one flushed line per cell: a killed sweep keeps its past
            stream.write(json.dumps(record, sort_keys=True) + "\n")
            stream.flush()
            records.append(record)
            cells_counter.inc(1, status=record["status"])
            if progress is not None:
                progress(len(records), len(cells), record)

        if workers <= 1:
            for cell in cells:
                emit(safe_run(cell))
        else:
            pool = CampaignPool(spec.to_dict(), workers)
            for _index, record in pool.run(cells):
                emit(record)
            if pool.workers_died:
                reg.counter("sdt_campaign_workers_died_total").inc(
                    pool.workers_died
                )

    report = summarize(spec.to_dict(), records)
    (out / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    return report


def resummarize(out_dir: str | Path) -> dict:
    """Rebuild ``report.json`` from an existing results directory."""
    from repro.campaign.report import load_results

    spec_dict, records = load_results(out_dir)
    report = summarize(spec_dict, records)
    (Path(out_dir) / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    return report
