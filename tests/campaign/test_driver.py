"""The campaign driver: streaming, determinism, failure tolerance."""

import json

import pytest

from repro.campaign import (
    CampaignSpec,
    resummarize,
    run_campaign,
    summarize,
)
from repro.campaign.driver import resolve_workers
from repro.campaign.report import load_results, render_report
from repro.util.errors import ConfigurationError


def tiny_spec(**over):
    base = {
        "name": "tiny",
        "seed": 11,
        "topologies": [{"kind": "mesh2d", "params": {"x": 3, "y": 3}}],
        "protocols": ["precomputed", "distvec"],
        "qualities": ["ideal", "lossy"],
        "failures": ["single-link"],
        "traffic": {"hosts": 3, "bytes": 8192},
    }
    base.update(over)
    return CampaignSpec.from_dict(base)


def test_resolve_workers():
    assert resolve_workers() == 1
    assert resolve_workers(4) == 4
    assert resolve_workers(0) == 1


def test_inline_run_streams_jsonl_and_writes_report(tmp_path):
    spec = tiny_spec()
    seen = []
    report = run_campaign(
        spec,
        tmp_path / "out",
        workers=1,
        progress=lambda done, total, rec: seen.append((done, total)),
    )
    assert report["cells_total"] == 4
    assert report["cells_ok"] == 4
    assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]
    lines = (tmp_path / "out" / "results.jsonl").read_text().splitlines()
    assert len(lines) == 4
    records = [json.loads(line) for line in lines]
    assert [r["status"] for r in records] == ["ok"] * 4
    # repair happened and carries the protocol's simulated repair time
    distvec = [r for r in records if r["protocol"] == "distvec"]
    assert all(r["repair"]["convergence"]["time"] > 0 for r in distvec)
    on_disk = json.loads((tmp_path / "out" / "report.json").read_text())
    assert on_disk == report
    spec_on_disk = json.loads((tmp_path / "out" / "spec.json").read_text())
    assert spec_on_disk == spec.to_dict()


def test_limit_truncates_the_cell_list(tmp_path):
    report = run_campaign(tiny_spec(), tmp_path / "out", limit=2)
    assert report["cells_total"] == 2


def test_zero_cells_is_an_error(tmp_path):
    with pytest.raises(ConfigurationError, match="zero cells"):
        run_campaign(tiny_spec(), tmp_path / "out", limit=0)


def test_workers_report_bit_identical_to_inline(tmp_path):
    """The acceptance diff: pooled and inline sweeps must write the
    exact same bytes of report.json (wall times never leak in)."""
    spec = tiny_spec()
    run_campaign(spec, tmp_path / "w1", workers=1)
    run_campaign(spec, tmp_path / "w3", workers=3)
    assert (
        (tmp_path / "w1" / "report.json").read_bytes()
        == (tmp_path / "w3" / "report.json").read_bytes()
    )


def test_chaos_raise_marks_cell_failed_not_fatal(tmp_path, monkeypatch):
    spec = tiny_spec()
    victim = spec.expand()[1].cell_id
    monkeypatch.setenv("SDT_CAMPAIGN_CHAOS_RAISE", victim)
    report = run_campaign(spec, tmp_path / "out", workers=1)
    assert report["cells_ok"] == 3
    assert report["cells_failed"] == 1
    assert report["failed_cells"][0]["cell"] == victim
    assert "chaos" in report["failed_cells"][0]["error"]
    # every cell still left a JSONL line
    lines = (tmp_path / "out" / "results.jsonl").read_text().splitlines()
    assert len(lines) == 4


def test_resummarize_round_trips(tmp_path):
    spec = tiny_spec()
    report = run_campaign(spec, tmp_path / "out", workers=1)
    (tmp_path / "out" / "report.json").unlink()
    assert resummarize(tmp_path / "out") == report
    spec_dict, records = load_results(tmp_path / "out")
    assert summarize(spec_dict, records) == report


def test_load_results_rejects_garbage(tmp_path):
    with pytest.raises(ConfigurationError, match="no results.jsonl"):
        load_results(tmp_path)
    (tmp_path / "results.jsonl").write_text('{"ok": 1}\nnot json\n')
    with pytest.raises(ConfigurationError, match=":2: bad JSONL"):
        load_results(tmp_path)


def test_render_report_mentions_protocols_and_failures(tmp_path):
    spec = tiny_spec()
    report = run_campaign(spec, tmp_path / "out", workers=1)
    text = render_report(report)
    assert "distvec" in text and "precomputed" in text
    assert "lossy" in text and "ideal" in text
    assert "4/4 cells ok" in text


def test_a_precomputed_cell_builds_its_route_table_once(monkeypatch):
    """The cell's config summary and its initial routes read one table:
    every smoke cell of the precomputed protocol routes its topology
    once (its repair is a different table)."""
    from repro.campaign import smoke_spec
    from repro.campaign.runner import run_cell
    from repro.routing import strategies

    built = []
    build_routes = strategies.build_routes

    def counting(topology, strategy, *args, **kwargs):
        built.append(strategy.name)
        return build_routes(topology, strategy, *args, **kwargs)

    monkeypatch.setattr(strategies, "build_routes", counting)
    cells = [c for c in smoke_spec().expand() if c.protocol == "precomputed"]
    assert cells
    for cell in cells:
        built.clear()
        assert run_cell(cell)["status"] == "ok"
        assert built == ["shortest-path"], cell.cell_id
