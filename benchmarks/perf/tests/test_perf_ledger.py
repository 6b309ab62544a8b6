"""Smoke pass over the performance ledger. Not part of tier-1:

    python -m pytest benchmarks/perf/tests -q

Every workload runs at ``--smoke`` size (k=4 deploys, 4 edits, 1 eval
operation, 8 sessions), through the command line for the output
contract and in-process for the span plumbing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parents[1]
ROOT = PERF.parents[1]
sys.path[:0] = [str(PERF), str(ROOT / "src")]

import catalog  # noqa: E402
import ledger  # noqa: E402
import run as cli  # noqa: E402
from spans import Recorder  # noqa: E402

NAMES = [w.name for w in catalog.WORKLOADS]
#: sizes of JSON documents whose cookie and lease numbers depend on how
#: the two churn clients interleave; every other count repeats per seed
INTERLEAVING_DEPENDENT = {"recovery.journal_bytes", "recovery.snapshot_bytes"}


def run_cli(*args: str, cwd: Path = ROOT, env: dict | None = None):
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks/perf/run.py"), *args],
        cwd=cwd, env=env, text=True, capture_output=True, timeout=300,
    )


def smoke(name: str, *, seed: int = 0, trace: int = 1) -> dict:
    done = run_cli(
        "--workload", name, "--smoke", "--seed", str(seed), "--trace", str(trace)
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.rstrip("\n").split("\n")[-1])


@pytest.fixture(scope="module")
def traced() -> dict[str, dict]:
    return {name: smoke(name) for name in NAMES}


def test_manifest_is_the_catalogue():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest == catalog.manifest()
    assert {w["name"] for w in manifest["workloads"]} < set(NAMES)
    assert len(manifest["per_layer"]) <= 128
    for workload in manifest["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_result_object_has_exactly_the_contract_keys(traced):
    for name, result in traced.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, name
        assert result["attempted"] >= 1


def test_every_per_layer_metric_is_emitted_with_its_unit(traced):
    expected = {
        m.name: m.unit
        for m in (*catalog.WORKLOAD_END_TO_END, *catalog.PER_LAYER)
    }
    for name, result in traced.items():
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        assert units == expected, name


def test_every_layer_is_reached_by_some_workload(traced):
    # the two arms deliver the same bytes in the 2 ms smoke incast
    zero_at_smoke_size = {"sdt_goodput_dev_pct", "netsim.tcp_goodput_dev_pct"}
    for metric in (*catalog.WORKLOAD_END_TO_END, *catalog.PER_LAYER):
        if metric.name in zero_at_smoke_size:
            continue
        assert any(
            result["metrics"][metric.name]["value"] != 0
            for result in traced.values()
        ), f"{metric.name} is 0 on every workload"


@pytest.mark.parametrize("name", ["deploy_lossy_k10", "service_churn"])
def test_untraced_run_reports_the_end_to_end_list(name):
    result = smoke(name, trace=0)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m.name: m.unit for m in catalog.END_TO_END
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", ["deploy_lossy_k10", "deploy_lossless_k10"])
def test_stage_ledger_accounts_for_the_deploy(traced, name):
    coverage = traced[name]["metrics"]["controller.ledger_coverage"]["value"]
    assert 0.85 <= coverage <= 1.15


def test_reconfigure_edits_are_all_incremental(traced):
    metrics = traced["reconfig_edits_k8"]["metrics"]
    assert metrics["controller.incremental_ratio"]["value"] == 1.0


@pytest.mark.parametrize("name", ["reconfig_edits_k8", "service_churn"])
def test_counts_repeat_for_a_seed(traced, name):
    def counts(result: dict) -> dict:
        return {
            k: v["value"]
            for k, v in result["metrics"].items()
            if v["unit"] == "count" and k not in INTERLEAVING_DEPENDENT
        }

    assert counts(smoke(name, seed=0)) == counts(traced[name])


def test_the_seed_orders_a_fixed_set_of_inputs():
    from wl_churn import ServiceChurn
    from wl_reconfig import ReconfigEdits

    def links(seed: int) -> list:
        workload = ReconfigEdits(seed, False)
        workload.build()
        return workload.links

    assert links(0) == links(0) != links(1)
    assert sorted(links(0)) == sorted(links(1))
    coins = [ServiceChurn(seed, False).coins for seed in (0, 0, 1)]
    assert coins[0] == coins[1] != coins[2]
    assert all(sum(flips) == 5 for flips in coins)


def test_host_times_come_from_the_fastest_repeat_of_each_part():
    phase = ledger.Phase()
    phase.parts = {"a": [0.3, 0.1, 0.2], "b": [0.5, 0.7]}
    assert ledger.best_cycle_s(phase) == pytest.approx(0.6)


def test_refuses_a_non_default_configuration():
    done = run_cli("--smoke", env={**os.environ, "SDT_NO_NUMPY": "1"})
    assert done.returncode != 0
    assert "SDT_NO_NUMPY" in done.stderr and not done.stdout


def test_fails_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        PERF, tmp_path / "benchmarks/perf",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = run_cli("--workload", NAMES[0], "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0 and not done.stdout


# --- span plumbing, in-process ----------------------------------------------

def test_no_wrapper_is_left_installed():
    import wl_churn
    import wl_deploy
    import wl_eval

    targets = [(owner, key) for owner, key, _ in wl_deploy.control_plane_wraps()]
    targets += [
        (wl_eval.OpenFlowSwitch, "forward"), (wl_eval.FlowTable, "lookup"),
        (wl_eval.Simulator, "schedule"), (wl_eval.OutPort, "enqueue"),
        (wl_eval.MpiJob, "run"), (wl_eval.SDTController, "deploy"),
        (wl_eval.harness, "build_logical_network"),
        (wl_eval.harness, "build_sdt_network"),
        (wl_churn.AsyncScheduler, "submit"),
        (wl_churn.SnapshotManager, "write"),
        (wl_churn.CommitJournal, "append_commit"),
        (wl_churn.IsolationVerifier, "verify"),
        (wl_churn.AdmissionController, "admit_deploy"),
    ]

    def current() -> list:
        return [
            owner[key] if isinstance(owner, dict) else vars(owner)[key]
            for owner, key in targets
        ]

    before = current()
    cpus = os.sched_getaffinity(0)  # service_churn holds one while it runs
    for name in NAMES:
        result = ledger.run_workload(
            cli._build_workload(name, 0, True), name,
            seed=0, seconds=None, trace=True, import_s=0.0,
        )
        assert result.correct, result.problems
        assert all(a is b for a, b in zip(before, current())), name
        assert os.sched_getaffinity(0) == cpus, name


class _Target:
    def work(self, x):
        return x + 1

    @property
    def value(self):
        return 7


def test_self_time_is_duration_minus_children():
    rec = Recorder()
    with rec.span("outer"):
        rec.timed("inner", sum, range(200_000))
        rec.timed("inner", sum, range(200_000))
    outer, first, second = rec.spans[0], rec.spans[1], rec.spans[2]
    assert first.parent == second.parent == 0 and outer.parent == -1
    children = (first.end - first.start) + (second.end - second.start)
    assert rec.self_s("outer") == pytest.approx(
        (outer.end - outer.start) - children, abs=1e-9
    )
    assert rec.total_s("inner") == pytest.approx(children, abs=1e-9)
    assert rec.calls("inner") == 2


def test_wrap_records_and_always_restores():
    rec = Recorder()
    original = vars(_Target)["work"]
    with pytest.raises(ZeroDivisionError):
        with rec.wrap(_Target, "work", "target.work"):
            assert _Target().work(1) == 2
            1 / 0
    assert vars(_Target)["work"] is original
    assert rec.calls("target.work") == 1


def test_wrap_handles_properties_mappings_and_hot_calls(tmp_path):
    rec = Recorder()
    table = {"f": len}
    prop = vars(_Target)["value"]
    with rec.wrap(_Target, "value", "target.value"), \
            rec.wrap(table, "f", "table.f", hot=True), \
            rec.wrap(_Target, "work", "target.count", count_only=True):
        with rec.span("op"):
            assert _Target().value == 7
            assert table["f"]("abc") == 3 and table["f"]("") == 0
            _Target().work(0)
    assert vars(_Target)["value"] is prop and table["f"] is len
    assert rec.calls("target.value") == 1
    assert rec.calls("table.f") == 2 and rec.calls("target.count") == 1
    # hot calls are totals, not records; they still reduce the parent
    assert [s.name for s in rec.spans] == ["op", "target.value"]
    assert rec.self_s("op") < rec.total_s("op")
    rec.dump(tmp_path / "t.jsonl")
    lines = (tmp_path / "t.jsonl").read_text().splitlines()
    kinds = [json.loads(line)["kind"] for line in lines]
    assert kinds.count("span") == 2 and "total" in kinds and "count" in kinds


def test_wrap_refuses_what_it_cannot_measure():
    rec = Recorder()
    with pytest.raises(AttributeError):
        with rec.wrap(_Target, "missing", "x"):
            pass
    off = Recorder(enabled=False)
    with off.wrap(_Target, "missing", "x"):  # disabled: never touches it
        assert off.timed("y", len, "ab") == 2
    assert not off.spans and not off.totals
