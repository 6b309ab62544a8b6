"""``repro bench`` is an exact-count gate driven by one suite table.

The committed ``benchmarks/baseline_<suite>.json`` files double as the
fixtures: the gate tests overwrite one field of a copy at a time, and
the ``--quick`` profile of every suite must pass against them.
"""

from __future__ import annotations

import copy
import functools
import json
from pathlib import Path

import pytest

import repro.bench as bench
from repro.bench import (
    BENCH_SUITES,
    EQ,
    INFO,
    SCENARIOS,
    SUITES,
    compare,
    render,
    run_and_report,
    run_suite,
)
from repro.cli import build_parser

BASELINES = Path(__file__).parent.parent / "benchmarks"

#: every gated (suite, "case" | "report", dotted path) of the table
GATED = [
    (name, level, path)
    for name, suite in SUITES.items()
    for level, fields in (("case", suite.case_fields), ("report", suite.fields))
    for path, rule in fields.items()
    if rule != INFO
]


def _baseline(suite: str) -> dict:
    return json.loads((BASELINES / f"baseline_{suite}.json").read_text())


@functools.lru_cache(maxsize=None)
def _quick_run(suite: str) -> dict:
    return run_suite(suite, quick=True)


def _quick(suite: str) -> dict:
    """The suite's ``--quick`` report (each suite runs once per session)."""
    return copy.deepcopy(_quick_run(suite))


def _set(record: dict, path: str, value: object) -> None:
    *parents, leaf = path.split(".")
    for part in parents:
        record = record[part]
    record[leaf] = value


def _overwrite(
    suite: str, level: str, path: str, value: object = "overwritten",
    *, both: bool = False,
) -> list[str]:
    """Problems after overwriting one field — of the first case, or of
    the report — in a copy of the committed baseline (``both``: on the
    baseline side too)."""
    report, base = _baseline(suite), _baseline(suite)
    for side in (report, base) if both else (report,):
        target = side[SUITES[suite].cases][0] if level == "case" else side
        _set(target, path, value)
    return compare(report, base)


# --- (a) the quick profile of every suite vs. its committed baseline --------

@pytest.mark.parametrize("suite", BENCH_SUITES)
def test_quick_profile_matches_committed_baseline(suite):
    """A PR that shifts a rule count learns it here. Regenerate with
    ``repro bench --suite S --out benchmarks/baseline_S.json`` (full
    profile) when the behaviour change is intentional."""
    report = _quick(suite)
    assert (report["suite"], report["quick"]) == (suite, True)
    assert compare(report, _baseline(suite)) == []
    # the report survives its own JSON round trip as a fixed point
    assert compare(report, json.loads(json.dumps(report))) == []
    text = render(report)
    assert SUITES[suite].title in text
    for case in report[SUITES[suite].cases]:
        assert str(case[SUITES[suite].key]) in text


# --- (b) every gated path gates; nothing else does ---------------------------

@pytest.mark.parametrize(
    "suite,level,path", GATED, ids=["-".join(g) for g in GATED]
)
def test_overwriting_one_gated_field_names_it(suite, level, path):
    [problem] = _overwrite(suite, level, path)
    assert f"{path} is 'overwritten'" in problem
    assert problem.startswith(f"{SUITES[suite].key}=") == (level == "case")


def test_identical_reports_pass():
    for suite in BENCH_SUITES:
        assert compare(_baseline(suite), _baseline(suite)) == [], suite


def test_scale_gate_identical_reports_pass():
    assert compare(_baseline("scale"), _baseline("scale")) == []


def test_engineer_gate_identical_reports_pass():
    assert compare(_baseline("engineer"), _baseline("engineer")) == []


def test_scenarios_missing_from_baseline_are_skipped():
    # the one rule that lets every --quick run gate against the
    # committed full-profile baseline
    for suite, spec in SUITES.items():
        report, base = _baseline(suite), _baseline(suite)
        base[spec.cases].pop(0)
        for path, rule in spec.case_fields.items():
            if rule == EQ:  # even a drifted value has nothing to equal
                _set(report[spec.cases][0], path, "drifted")
        assert compare(report, base) == [], suite


def test_engineer_gate_skips_phases_missing_from_baseline():
    report = _baseline("engineer")
    report["phases"].append(
        {**report["phases"][0], "phase": "brand-new", "steps_applied": 9}
    )
    assert compare(report, _baseline("engineer")) == []


def test_literal_rules_hold_for_cases_the_baseline_lacks():
    report, base = _baseline("recovery"), _baseline("recovery")
    base["points"].pop(0)
    report["points"][0]["bit_identical"] = False
    [problem] = compare(report, base)
    assert "bit_identical is False, must be True" in problem


def test_small_scenario_wall_jitter_is_not_gated():
    """Nor is any other wall clock: every float the table does not
    gate — all ``*_s`` wall fields among them — scaled 100x still
    passes. Speed is judged by benchmarks/perf/, not here."""

    def scale(node, gated_leaves):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in list(items):
            if isinstance(value, (dict, list)):
                scale(value, gated_leaves)
            elif isinstance(value, float) and key not in gated_leaves:
                node[key] = value * 100

    for suite in BENCH_SUITES:
        report = _baseline(suite)
        scale(report, {p.rsplit(".", 1)[-1] for s, _, p in GATED if s == suite})
        assert report != _baseline(suite), suite
        assert compare(report, _baseline(suite)) == [], suite


def test_baseline_of_another_suite_or_schema_is_refused():
    [problem] = compare(_baseline("scale"), _baseline("recovery"))
    assert "baseline is (suite, schema) ('recovery', 2)" in problem
    stale = _baseline("scale")
    stale["schema"] = 1
    [problem] = compare(_baseline("scale"), stale)
    assert "('scale', 1), this run is ('scale', 2)" in problem


# named spot checks over the same table, pinning the exact messages

def test_rules_pushed_regression_fails_even_on_small_scenarios():
    [problem] = _overwrite("reconfig", "case", "rules_pushed", 59)
    assert problem == "scenario=fattree-k4: rules_pushed is 59, baseline has 58"


def test_cold_fallback_fails_when_baseline_ran_incrementally():
    [problem] = _overwrite("reconfig", "case", "mode", "cold")
    assert "mode is 'cold', baseline has 'incremental'" in problem


def _mutant_problems(monkeypatch, owner, name, replacement) -> list[str]:
    """The fattree-k4 reconfig scenario, rerun with ``owner.name``
    replaced, against the committed baseline."""
    monkeypatch.setattr(owner, name, replacement)
    case = bench.run_scenario(SCENARIOS[0])
    base = _baseline("reconfig")
    return compare({**base, "scenarios": [case]}, base)


def test_an_edit_that_builds_every_link_fails_the_built_count(monkeypatch):
    from repro.core.controller.config import TopologyConfig

    problems = _mutant_problems(
        monkeypatch, TopologyConfig, "diff_from", lambda self, live: None
    )
    assert [p.split(" is ")[0] for p in problems] == [
        "scenario=fattree-k4: links_built_incremental"
    ]


def test_an_edit_that_rebinds_every_link_fails_the_projected_count(monkeypatch):
    from repro.topology.diff import TopologyDiff

    def everything(diff):
        return set(diff.touched_nodes()) | {
            node for pair in bench.SCENARIOS[0].build().links
            for node in pair.endpoints
        }

    problems = _mutant_problems(
        monkeypatch, TopologyDiff, "rebound_nodes", everything
    )
    assert [p.split(" is ")[0] for p in problems] == [
        "scenario=fattree-k4: links_projected_incremental"
    ]


def test_a_verifier_that_rewalks_every_projection_fails_the_indexed_count(
    monkeypatch,
):
    from repro.tenancy.isolation import IsolationVerifier

    index = IsolationVerifier._index

    def rewalk(self, sessions):
        for claim in self._claims.values():
            self._unclaim(claim)
        self._claims = {}
        return index(self, sessions)

    monkeypatch.setattr(IsolationVerifier, "_index", rewalk)
    case = bench._churn_profile(bench.CHURN_SESSIONS_QUICK)
    base = _baseline("churn")
    problems = compare({**base, "profiles": [case]}, base)
    assert [p.split(" is ")[0] for p in problems] == [
        f"sessions_target={bench.CHURN_SESSIONS_QUICK}: projections_indexed"
    ]


def test_warm_partition_cache_miss_fails_incremental_scenarios():
    [problem] = _overwrite("reconfig", "case", "partition_cache_hits_warm", 0)
    assert "partition_cache_hits_warm is 0" in problem


def test_scale_gate_rule_count_drift_fails():
    [problem] = _overwrite("scale", "case", "rules_installed", 401)
    assert problem == "k=4: rules_installed is 401, baseline has 400"


def test_engineer_gate_worse_than_static_fails_absolutely():
    # even a baseline that agrees cannot excuse a literal rule
    [problem] = _overwrite(
        "engineer", "report", "phases_worse_than_static", 1, both=True
    )
    assert problem == "phases_worse_than_static is 1, must be 0"


def test_engineer_gate_decision_drift_is_exact():
    for path in ("steps_applied", "moves_total", "max_rules_pushed",
                 "act_static_s", "act_engineered_s"):
        drifted = _baseline("engineer")["phases"][0][path] * 1.01
        [problem] = _overwrite("engineer", "case", path, drifted)
        assert problem.startswith(f"phase=skewed: {path} is ")


def test_engineer_gate_disruption_bounds_are_hard():
    for path in ("cap_violations", "non_incremental_steps", "non_mbb_steps"):
        [problem] = _overwrite("engineer", "report", path, 1, both=True)
        assert problem == f"{path} is 1, must be 0"


def test_multitenant_gate_catches_drift():
    assert _overwrite("multitenant", "case", "rules_installed", 401)
    assert _overwrite("multitenant", "report", "isolation_ok", False, both=True)
    assert _overwrite("multitenant", "report", "rejected", [])


def test_compare_campaign_catches_drift():
    report = _baseline("campaign")
    report["cells_ok"] -= 1
    report["summary_sha256"] = "0" * 64
    report["protocols"][0]["control_messages"] += 1
    problems = compare(report, _baseline("campaign"))
    assert [p.split(" is ")[0] for p in problems] == [
        "cells_ok", "summary_sha256", "protocol=distvec: control_messages",
    ]


# --- (c) run_and_report and the CLI surface ----------------------------------

@pytest.fixture()
def committed_run(monkeypatch, tmp_path):
    """Stub the run itself: every suite 'produces' its committed
    baseline, in a scratch working directory."""
    monkeypatch.setattr(
        bench, "run_suite", lambda name, *, quick=False: _baseline(name)
    )
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_scale_suite_default_out_is_bench_scale(committed_run, capsys):
    assert run_and_report(suite="scale", quick=True) == 0
    assert [p.name for p in committed_run.iterdir()] == ["BENCH_scale.json"]
    # an explicit path wins
    assert run_and_report(suite="scale", out="custom.json") == 0
    assert json.loads((committed_run / "custom.json").read_text()) == (
        _baseline("scale")
    )
    capsys.readouterr()


def test_engineer_suite_default_out(committed_run, capsys):
    path = str(BASELINES / "baseline_engineer.json")
    assert run_and_report(suite="engineer", baseline=path) == 0
    assert (committed_run / "BENCH_engineer.json").exists()
    assert f"no regression vs {path}" in capsys.readouterr().out


def test_mismatch_exits_1_and_names_the_field(monkeypatch, committed_run, capsys):
    drifted = _baseline("reconfig")
    drifted["scenarios"][2]["rules_pushed"] += 1
    monkeypatch.setattr(bench, "run_suite", lambda name, *, quick=False: drifted)
    path = str(BASELINES / "baseline_reconfig.json")
    assert run_and_report(suite="reconfig", baseline=path) == 1
    err = capsys.readouterr().err
    assert "scenario=fattree-k8: rules_pushed is 483, baseline has 482" in err
    assert (committed_run / "BENCH_reconfig.json").exists()


def test_missing_baseline_fails_fast(monkeypatch, tmp_path, capsys):
    # a typo'd --baseline path must error out *before* the suite runs
    def boom(name, *, quick=False):
        raise AssertionError("suite ran despite a missing baseline")

    monkeypatch.setattr(bench, "run_suite", boom)
    monkeypatch.chdir(tmp_path)
    for suite in ("reconfig", "engineer"):
        rc = run_and_report(suite=suite, baseline=str(tmp_path / "nope.json"))
        assert rc == 2
        assert "baseline file not found" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_unknown_suite_is_a_value_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match="unknown bench suite 'nope'"):
        run_and_report(suite="nope")


def test_cli_bench_parser_defaults():
    args = vars(build_parser().parse_args(["bench", "--quick"]))
    assert args.pop("fn").__name__ == "cmd_bench"
    # --suite, --quick, --out, --baseline and nothing else
    assert args == {
        "command": "bench", "suite": "reconfig", "quick": True,
        "out": None, "baseline": None,
    }
    for gone in ("--repeats", "--tolerance"):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", gone, "1"])


def test_cli_bench_suite_flag():
    for suite in BENCH_SUITES:
        args = build_parser().parse_args(["bench", "--suite", suite])
        assert args.suite == suite


def test_cli_bench_engineer_suite_flag():
    args = build_parser().parse_args(["bench", "--suite", "engineer"])
    assert args.suite == "engineer"
    assert args.fn.__name__ == "cmd_bench"


def test_bench_suites_is_the_single_list():
    assert BENCH_SUITES == tuple(SUITES)
    assert "campaign" in BENCH_SUITES
    # one comparer, one renderer: the module carries no per-suite copies
    assert not [
        name for name in vars(bench)
        if name.startswith(("compare_", "render_"))
    ]
    for name in ("main", "DEFAULT_TOLERANCE", "MIN_GATE_SECONDS",
                 "MIN_RECOVERY_GATE_SECONDS", "_SuiteImpl", "_config_for"):
        assert not hasattr(bench, name), name


# --- (d) the suites themselves, on their quick reports -----------------------

def test_run_scenario_smoke():
    record = bench.run_scenario(SCENARIOS[0])  # fattree-k4
    assert record["scenario"] == "fattree-k4"
    assert record["mode"] == "incremental"
    assert record["cold_deploy_s"] > 0
    assert record["incremental_reconfigure_s"] > 0
    assert 0 < record["rules_pushed"] < record["rules_installed_cold"]
    assert record["rules_unchanged"] > 0
    assert 0.0 < record["rule_cache_hit_rate"] <= 1.0
    # clean sub-switches were not recompiled
    assert (
        record["rules_synthesized_incremental"]
        < record["rules_synthesized_cold"]
    )


def test_rules_installed_cold_is_counted_before_the_edit():
    # reconfigure edits the deployment in place; the count taken after
    # it (398 for fat-tree k=4) is not what the cold deploy installed
    records = _quick("reconfig")["scenarios"] + _baseline("reconfig")["scenarios"]
    assert records[0]["rules_installed_cold"] == 400
    for record in records:
        assert (
            record["rules_installed_cold"] == record["rules_synthesized_cold"]
        ), record["scenario"]


def test_run_suite_shape(monkeypatch):
    # suite plumbing with only the smallest scenario
    monkeypatch.setattr(bench, "SCENARIOS", SCENARIOS[:1])
    report = run_suite("reconfig", quick=True)
    assert (report["schema"], report["suite"], report["quick"]) == (
        bench.SCHEMA_VERSION, "reconfig", True,
    )
    assert [s["scenario"] for s in report["scenarios"]] == ["fattree-k4"]


def test_run_scale_suite_smoke():
    report = _quick("scale")
    assert [p["k"] for p in report["points"]] == [4, 8]
    assert report["points"][0]["rules_installed"] == 400
    for point in report["points"]:
        assert point["cold_deploy_s"] > 0
        assert point["rules_per_s"] > 0
    # rates end in _s too, but are not rendered as milliseconds
    assert " ms" not in render(report).split("rules_per_s")[1]


def test_multitenant_suite_deterministic_and_isolated():
    report = _quick("multitenant")
    assert report["isolation_ok"], report["isolation_problems"]
    assert report["rejected"] == ["greedy"]
    assert report["admitted"] == ["chain-crew", "hpc-lab", "torus-team"]
    assert report["total_rules_installed"] == sum(
        t["rules_installed"] for t in report["tenants"]
    )
    # deterministic: a second run matches on every gated field
    assert compare(run_suite("multitenant"), report) == []


def test_churn_storm_is_refused_by_the_quota_and_nothing_else():
    # each storm deploy has its own name, so what refuses the excess
    # is the 8-port lease (two chain-3s fit), not a duplicate-name
    # ConfigurationError hiding under other_errors
    for profile in _quick("churn")["profiles"] + _baseline("churn")["profiles"]:
        storm = profile["storm"]
        assert storm["accepted"] == bench.CHURN_MAX_PENDING
        assert storm["deploys_ok"] == 2 * bench.CHURN_STORM_TENANTS
        assert storm["admission_rejected"] == (
            storm["accepted"] - storm["deploys_ok"]
        )
        assert storm["other_errors"] == 0
    # the full-profile baseline carries the quick profile as a case
    assert [p["sessions_target"] for p in _baseline("churn")["profiles"]] == [
        bench.CHURN_SESSIONS_QUICK, bench.CHURN_SESSIONS_FULL,
    ]


def test_run_engineer_suite_smoke():
    report = _quick("engineer")
    assert [p["phase"] for p in report["phases"]] == ["skewed", "shifted"]
    for phase in report["phases"]:
        # the engineered rig must beat the static ring in both phases
        assert phase["improvement"] > 1.0
        assert phase["steps_applied"] >= 1
    # bounded disruption: all steps incremental MBB, under the cap
    assert report["phases_worse_than_static"] == 0
    assert report["cap_violations"] == 0
    assert report["non_incremental_steps"] == 0
    assert report["non_mbb_steps"] == 0
    assert 0 < report["max_rules_pushed"] <= report["rules_cap"]


def test_run_campaign_suite_shape_and_determinism():
    report = _quick("campaign")
    assert report["cells_total"] == 24
    assert [g["protocol"] for g in report["protocols"]] == [
        "distvec", "precomputed",
    ]
    for group in report["protocols"]:
        assert group["messages_sent"] > 0
        assert group["repair_convergence_mean_s"] > 0
    assert compare(run_suite("campaign"), report) == []
