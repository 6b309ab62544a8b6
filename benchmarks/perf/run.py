"""The repository's performance ledger: six workloads, one command.

    python3 benchmarks/perf/run.py                      # all six, untraced
    python3 benchmarks/perf/run.py --trace              # + per-layer ledger
    python3 benchmarks/perf/run.py --repeat-check       # two sets, compared
    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

Without ``--workload`` every workload runs in a fresh subprocess (one
driver thread each) and every metric is printed by name with its unit,
direction and regression bound. With ``--workload`` the one workload
runs in this process and the last line of standard output is the
result object the benchmark driver reads (``BENCHMARK.json`` describes
it). ``--seconds`` bounds each measured phase by time; without it a
workload runs its fixed operation count. See README.md beside this
file for the glossary.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up time starts before the heavy imports

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import catalog
import ledger

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: the benchmark measures the default configuration; these switch the
#: columnar backend or the compile pool and would measure another one
PINNED_ENV = ("SDT_NO_NUMPY", "SDT_COMPILE_WORKERS", "SDT_COMPILE_BACKEND")


def _fail(message: str) -> "NoReturn":  # noqa: F821
    print(f"benchmarks/perf: {message}", file=sys.stderr)
    raise SystemExit(2)


def _pin_environment() -> None:
    if not (ROOT / "src" / "repro").is_dir():
        _fail(f"no src/repro under {ROOT}: nothing to measure")
    pinned = [name for name in PINNED_ENV if name in os.environ]
    if pinned:
        _fail(
            "refusing to run with " + ", ".join(pinned) + " set: the "
            "benchmark measures the default configuration"
        )
    if os.environ.get("PYTHONHASHSEED") != "0":
        # the partitioner breaks ties in set-iteration order, so with
        # randomized str hashing the same --seed gives another partition
        # (and other modeled times and per-switch counts) in every
        # process; start over with hashing pinned
        os.execve(
            sys.executable, [sys.executable, *sys.argv],
            {**os.environ, "PYTHONHASHSEED": "0"},
        )


def environment(*, with_git: bool) -> dict:
    import numpy

    stamp = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }
    if with_git:
        try:
            stamp["git"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                capture_output=True, check=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            stamp["git"] = "unknown"
    return stamp


# --- one workload, in this process ---------------------------------------

def _build_workload(name: str, seed: int, smoke: bool):
    if name.startswith("deploy_"):
        from wl_deploy import Deploy

        return Deploy(name, seed, smoke)
    if name == "reconfig_edits_k8":
        from wl_reconfig import ReconfigEdits

        return ReconfigEdits(seed, smoke)
    if name == "eval_alltoall_ft4":
        from wl_eval import EvalAllToAll

        return EvalAllToAll(seed, smoke)
    if name == "eval_incast_chain8":
        from wl_eval import EvalIncast

        return EvalIncast(seed, smoke)
    from wl_churn import ServiceChurn

    return ServiceChurn(seed, smoke)


def _metric_line(name: str, value: float, samples: dict[str, int]) -> str:
    metric = catalog.BY_NAME[name]
    bound = "" if metric.bound is None else f"  bound {metric.bound:g}"
    count = f"  ({samples[name]} samples)" if name in samples else ""
    return (
        f"    {name:<36} {value:>16.6g} {metric.unit:<8}"
        f"{metric.better:<7}{bound}{count}"
    )


def render(result) -> str:
    lines = [
        f"== {result.workload} (seed {result.seed}, "
        f"{'traced' if result.traced else 'untraced'}): "
        f"ops_attempted {result.attempted}, ops_failed {result.failed}"
    ]
    lines += [f"   problem: {p}" for p in result.problems]
    lines.append("  end-to-end")
    for metric in (*catalog.END_TO_END, *catalog.WORKLOAD_END_TO_END):
        if metric.name in result.metrics:
            lines.append(
                _metric_line(metric.name, result.metrics[metric.name],
                             result.samples)
            )
    if result.traced:
        touched = [
            m.name for m in catalog.PER_LAYER if result.metrics[m.name] != 0
        ]
        lines.append(
            f"  per-layer ({len(catalog.PER_LAYER) - len(touched)} more are 0:"
            " layers this workload does not reach)"
        )
        for name in touched:
            lines.append(_metric_line(name, result.metrics[name], result.samples))
        lines.append(f"  stages by self time ({result.trace_path})")
        lines.append(f"    {'span':<32} {'self s':>12} {'share':>8} {'calls':>10}")
        for name, self_s, share, calls in result.stage_table:
            lines.append(
                f"    {name:<32} {self_s:>12.6f} {share:>7.1%} {calls:>10}"
            )
    return "\n".join(lines)


def run_one(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    workload = _build_workload(args.workload, args.seed, args.smoke)
    result = ledger.run_workload(
        workload,
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        import_s=time.perf_counter() - _T0,
    )
    print("environment:", json.dumps(environment(with_git=False)))
    print(render(result))
    print("detail:", json.dumps({
        "workload": result.workload, "attempted": result.attempted,
        "failed": result.failed, "metrics": result.metrics,
    }))
    # the driver's result object: untraced runs report the end-to-end
    # list of BENCHMARK.json, traced runs its per_layer list
    reported = (
        (*catalog.WORKLOAD_END_TO_END, *catalog.PER_LAYER)
        if result.traced
        else catalog.END_TO_END
    )
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            m.name: {"value": result.metrics.get(m.name, 0.0), "unit": m.unit}
            for m in reported
        },
    }))
    return 0


# --- all workloads, each in a subprocess ------------------------------------

def _spawn(name: str, args, trace: int) -> dict:
    """Run one workload in a fresh interpreter; returns its ``detail``."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(args.seed), "--trace", str(trace),
    ]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, cwd=ROOT, text=True, capture_output=True, timeout=900,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        _fail(f"{name} exited with code {done.returncode}")
    *human, detail, _result = done.stdout.rstrip("\n").split("\n")
    print("\n".join(line for line in human if not line.startswith("environment:")))
    return json.loads(detail.removeprefix("detail:"))


def run_set(args, trace: int) -> dict[str, dict]:
    return {w.name: _spawn(w.name, args, trace) for w in catalog.WORKLOADS}


def repeat_check(first: dict[str, dict], second: dict[str, dict]) -> int:
    """Print each end-to-end metric's relative difference between two
    sets next to its bound; returns how many exceed it. Exact metrics
    (bound 0) must match exactly."""
    print("== repeat check: second set against the first")
    exceeded = 0
    for workload, detail in first.items():
        for metric in (*catalog.END_TO_END, *catalog.WORKLOAD_END_TO_END):
            if metric.name not in detail["metrics"]:
                continue
            a = detail["metrics"][metric.name]
            b = second[workload]["metrics"][metric.name]
            worse = (b - a) / a if metric.better == "lower" else (a - b) / a
            bad = worse > metric.bound or (metric.bound == 0 and a != b)
            exceeded += bad
            print(
                f"    {workload:<22} {metric.name:<22} {a:>14.6g} "
                f"{b:>14.6g} {worse:>+8.2%}  bound {metric.bound:g}"
                f"{'  EXCEEDED' if bad else ''}"
            )
    return exceeded


def run_all(args) -> int:
    print("environment:", json.dumps(environment(with_git=True)))
    first = run_set(args, 0)
    failed = sum(d["failed"] for d in first.values())
    if args.repeat_check:
        second = run_set(args, 0)
        failed += sum(d["failed"] for d in second.values())
        failed += repeat_check(first, second)
    if args.trace:
        failed += sum(d["failed"] for d in run_set(args, 1).values())
    return 1 if failed else 0


def main() -> int:
    _pin_environment()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", choices=[w.name for w in catalog.WORKLOADS],
        help="run this one workload in-process (default: all, in subprocesses)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="host seconds each run measures (default: fixed op counts)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="also record spans and report the per-layer metrics",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes and op counts (what the benchmark's own tests run)",
    )
    parser.add_argument(
        "--repeat-check", action="store_true",
        help="run the untraced set twice and compare against the bounds",
    )
    args = parser.parse_args()
    if args.workload is not None:
        if args.repeat_check:
            parser.error("--repeat-check compares full sets; drop --workload")
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
