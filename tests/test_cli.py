"""CLI command coverage (python -m repro ...)."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main


@pytest.fixture()
def ft4_config(tmp_path):
    path = tmp_path / "ft4.json"
    path.write_text(json.dumps({"kind": "fat-tree", "params": {"k": 4}}))
    return str(path)


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fat-tree" in out and "imb-alltoall" in out


def test_check_ok(ft4_config, capsys):
    assert main(["check", ft4_config, "--switches", "2", "--spec", "h3c"]) == 0
    assert "deployable" in capsys.readouterr().out


def test_check_failure_lists_problems(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(
        {"kind": "torus3d", "params": {"x": 4, "y": 4, "z": 4}}
    ))
    # a 4^3 torus cannot auto-size onto 2 small switches
    rc = main(["check", str(path), "--switches", "2", "--spec", "h3c"])
    assert rc == 2  # auto-sizing itself refuses (CapacityError)
    assert "error:" in capsys.readouterr().err


def test_deploy(ft4_config, capsys):
    assert main(["deploy", ft4_config, "--switches", "2", "--spec", "h3c"]) == 0
    out = capsys.readouterr().out
    assert "flow entries" in out
    assert "install time" in out


def test_run_workload(ft4_config, capsys):
    rc = main([
        "run", ft4_config, "--switches", "2", "--spec", "h3c",
        "--workload", "imb-alltoall", "--ranks", "4",
        "--param", "msglen=4096", "--param", "repetitions=1",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ACT" in out and "bytes sent" in out


def test_tables(capsys):
    assert main(["tables", "all"]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out and "Table II" in out and "Table III" in out


def test_zoo(capsys):
    assert main(["zoo"]) == 0
    out = capsys.readouterr().out
    assert "261" in out and "Kdl" in out


def test_missing_config(capsys):
    assert main(["check", "/does/not/exist.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_telemetry_command(ft4_config, capsys):
    rc = main([
        "telemetry", ft4_config, "--switches", "2", "--spec", "h3c",
        "--bytes", "65536",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "deploy time" in out
    assert "reconfigure" in out
    assert "hottest ports" in out
    assert "Telemetry metrics" in out
    assert "sdt_controller_mutations_total" in out


def test_trace_out_writes_jsonl(ft4_config, tmp_path, capsys):
    from repro.telemetry import active_tracer, load_trace

    trace_path = tmp_path / "run.jsonl"
    rc = main([
        "telemetry", ft4_config, "--switches", "2", "--spec", "h3c",
        "--bytes", "65536", "--trace-out", str(trace_path),
    ])
    assert rc == 0
    assert active_tracer() is None  # uninstalled on the way out
    assert f"trace written: {trace_path}" in capsys.readouterr().err
    records = load_trace(trace_path)
    names = {r["name"] for r in records}
    assert "controller.deploy" in names
    assert "controller.reconfigure" in names
    assert "txn.commit" in names
    assert "txn.stage" in names


def test_trace_out_on_deploy(ft4_config, tmp_path, capsys):
    from repro.telemetry import load_trace

    trace_path = tmp_path / "deploy.jsonl"
    rc = main([
        "deploy", ft4_config, "--switches", "2", "--spec", "h3c",
        "--trace-out", str(trace_path),
    ])
    assert rc == 0
    spans = [r for r in load_trace(trace_path) if r["type"] == "span"]
    assert any(r["name"] == "controller.deploy" for r in spans)


def test_trace_out_written_even_on_error(tmp_path, capsys):
    trace_path = tmp_path / "err.jsonl"
    rc = main([
        "check", "/does/not/exist.json", "--trace-out", str(trace_path),
    ])
    assert rc == 2
    assert trace_path.exists()  # empty trace, but the file lands


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "switches": 3,
        "spec": {"num_ports": 256, "flow_table_capacity": 4096},
        "spare_hosts": 4,
        "tenants": [
            {"id": "alice",
             "quota": {"host_ports": 24, "tcam_share": 2500},
             "topology": {"kind": "fat-tree", "params": {"k": 4}}},
            {"id": "bob",
             "quota": {"host_ports": 12, "tcam_share": 2000},
             "topology": {"kind": "torus2d",
                          "params": {"x": 3, "y": 3,
                                     "hosts_per_switch": 1}}},
        ],
    }))
    return str(path)


def test_serve_deploys_all_tenants(scenario_file, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert main(["serve", scenario_file, "--json", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "alice" in out and "bob" in out
    report = json.loads(report_path.read_text())
    assert set(report["tenants"]) == {"alice", "bob"}
    assert report["rejected"] == []
    assert report["tenants"]["alice"]["rules_installed"] > 0


def test_serve_reports_rejection(tmp_path, capsys):
    path = tmp_path / "over.json"
    path.write_text(json.dumps({
        "switches": 3,
        "spec": {"num_ports": 256, "flow_table_capacity": 4096},
        "tenants": [
            {"id": "greedy",
             "quota": {"host_ports": 4, "tcam_share": 2000},
             "topology": {"kind": "fat-tree", "params": {"k": 4}}},
        ],
    }))
    assert main(["serve", str(path)]) == 1
    assert "REJECTED" in capsys.readouterr().out


def test_status_tables_and_json(scenario_file, capsys):
    assert main(["status", scenario_file]) == 0
    out = capsys.readouterr().out
    assert "Pool occupancy" in out and "Headroom" in out
    assert main(["status", scenario_file, "--json"]) == 0
    status = json.loads(capsys.readouterr().out)
    assert set(status["tenants"]) == {"alice", "bob"}
    for info in status["switches"].values():
        assert info["flow_headroom"] == (
            info["flow_capacity"] - info["flow_entries"]
        )


@pytest.fixture()
def ring_config(tmp_path):
    n = 6
    path = tmp_path / "ring6.json"
    path.write_text(json.dumps({
        "kind": "custom",
        "params": {
            "name": "ring6",
            "switches": [f"s{i}" for i in range(n)],
            "hosts": [f"h{i}" for i in range(n)],
            "links": (
                [[f"s{i}", f"s{(i + 1) % n}"] for i in range(n)]
                + [[f"h{i}", f"s{i}"] for i in range(n)]
            ),
        },
        "routing": "shortest-path",
        "lossless": False,
    }))
    return str(path)


def test_engineer_parser_defaults():
    from repro.cli import build_parser

    args = build_parser().parse_args(["engineer", "cfg.json"])
    assert args.steps == 1
    assert args.watch is False
    assert args.rules_cap == 0
    assert args.traffic == []
    assert args.fn.__name__ == "cmd_engineer"


def test_engineer_one_shot(ring_config, tmp_path, capsys):
    out = tmp_path / "steps.json"
    rc = main([
        "engineer", ring_config, "--switches", "2", "--spec", "h3c",
        "--traffic", "h0:h3:4194304", "--steps", "2",
        "--window", "0", "--json", str(out),
    ])
    assert rc == 0
    text = capsys.readouterr().out
    assert "applied" in text
    records = json.loads(out.read_text())
    assert len(records) == 2
    # the hot pair earns a direct link on the first observed round
    assert records[0]["outcome"] == "applied"
    assert records[0]["moves"]
    assert records[0]["rules_pushed"] > 0
    # the improved topology then clears hysteresis: no churn
    assert records[1]["outcome"] == "held"


def test_engineer_watch_pushes_what_one_shot_pushes(ring_config, tmp_path):
    """Through the service (``--watch``) a step is the same incremental
    edit as a one-shot step: on ring-6 both push 10 rules."""
    pushed = {}
    for mode, flags in (
        ("once", ["--steps", "1"]),
        ("watch", ["--watch", "--max-steps", "1", "--interval", "0"]),
    ):
        out = tmp_path / f"{mode}.json"
        assert main([
            "engineer", ring_config, "--switches", "2", "--spec", "h3c",
            "--traffic", "h0:h3:4194304", "--window", "0",
            *flags, "--json", str(out),
        ]) == 0
        (record,) = json.loads(out.read_text())
        assert record["outcome"] == "applied"
        pushed[mode] = record["rules_pushed"]
    assert pushed == {"once": 10, "watch": 10}


def test_engineer_idle_network_holds(ring_config, capsys):
    rc = main([
        "engineer", ring_config, "--switches", "2", "--spec", "h3c",
    ])
    assert rc == 0
    captured = capsys.readouterr()
    assert "no --traffic flows" in captured.err
    # an idle network never warms up into measurable demand
    assert "warming" in captured.out


def test_engineer_rejects_bad_traffic_spec(ring_config, capsys):
    rc = main([
        "engineer", ring_config, "--switches", "2", "--spec", "h3c",
        "--traffic", "h0:nope:100",
    ])
    assert rc != 0
    assert "error" in capsys.readouterr().err.lower()


# --- campaign ----------------------------------------------------------------

@pytest.fixture()
def campaign_spec_path(tmp_path):
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps({
        "name": "cli-smoke",
        "seed": 9,
        "topologies": [{"kind": "mesh2d", "params": {"x": 3, "y": 3}}],
        "protocols": ["precomputed", "distvec"],
        "qualities": ["ideal"],
        "failures": ["single-link"],
        "traffic": {"hosts": 3, "bytes": 8192},
    }))
    return path


def test_campaign_run_and_report(campaign_spec_path, tmp_path, capsys):
    out_dir = tmp_path / "results"
    rc = main([
        "campaign", "run", str(campaign_spec_path),
        "--out", str(out_dir), "--workers", "1",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[1/2]" in out and "[2/2]" in out  # progress lines
    assert "2/2 cells ok" in out
    assert (out_dir / "results.jsonl").exists()
    assert (out_dir / "report.json").exists()

    assert main(["campaign", "report", str(out_dir)]) == 0
    assert "distvec" in capsys.readouterr().out

    assert main(["campaign", "report", str(out_dir), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["cells_ok"] == 2


def test_campaign_run_quiet_and_limit(campaign_spec_path, tmp_path, capsys):
    rc = main([
        "campaign", "run", str(campaign_spec_path),
        "--out", str(tmp_path / "r"), "--limit", "1", "--quiet",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[1/" not in out
    assert "1/1 cells ok" in out


def test_campaign_bad_spec_is_a_clean_error(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    rc = main(["campaign", "run", str(missing), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_campaign_report_needs_results(tmp_path, capsys):
    rc = main(["campaign", "report", str(tmp_path)])
    assert rc == 2
    assert "results.jsonl" in capsys.readouterr().err


def test_bench_suite_choices_track_bench_module():
    """--suite must enumerate exactly repro.bench.BENCH_SUITES — the
    README/help drift this guards against came from hand-copied lists."""
    from repro.bench import BENCH_SUITES
    from repro.cli import build_parser

    parser = build_parser()
    bench = next(
        a
        for p in parser._subparsers._group_actions
        for name, sub in p.choices.items()
        if name == "bench"
        for a in sub._actions
        if a.dest == "suite"
    )
    assert tuple(bench.choices) == BENCH_SUITES


def _run_fresh(code: str) -> None:
    """Run ``code`` in a fresh interpreter that imports this checkout's
    ``src`` (this process may already have imported anything)."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, timeout=60
    )


def test_importing_the_cli_does_not_import_scipy():
    """Only the spectral comparator needs scipy; ``import repro`` must
    not pay for it."""
    _run_fresh("import repro.cli, sys; assert 'scipy' not in sys.modules")


def test_the_runtime_does_not_import_networkx():
    """networkx is a test-only oracle: the CLI, the controller, the
    campaign runner, the analyses and the HTTP service import none of
    it."""
    _run_fresh(
        "import sys\n"
        "import repro.cli, repro.core, repro.campaign, repro.analysis\n"
        "import repro.service.app\n"
        "assert 'networkx' not in sys.modules"
    )
