"""One workload run: set-up, measured phases, checks, metric assembly.

A workload is an object with

* ``ops`` — operations in a run that is not time-bounded, ``min_ops``
  — operations a time-bounded run never does fewer than, and
  ``cycle_ops`` — operations in one pass over the workload's inputs;
* ``build()`` — construct everything the operation needs (topology,
  cluster, programs, set-up deploys), replacing what an earlier call
  built;
* ``warm_up() -> float`` — one discarded operation at full size (the
  first large deploy in a process is ~30 % slower than the steady
  state); returns its seconds;
* ``run(budget, rec) -> Phase`` — the measured closed loop, recording
  spans into ``rec`` (a disabled recorder for the untraced phase);
* ``verify() -> list[str]`` — end-of-run output checks, and
  ``teardown()`` — stop and delete whatever ``build`` started
  (:class:`BaseWorkload` has the do-nothing defaults);
* ``work_per_s(phase)`` — units of work per host second in the
  quietest repeats, and ``workload_metrics(phase)`` /
  ``layer_metrics(untraced, traced, rec)`` — the workload's own
  end-to-end and per-layer figures.

:func:`run_workload` drives one. The untraced phase gives every
end-to-end metric; with ``trace`` the run's time is split, the second
half repeats the loop with spans on, and the per-layer metrics come
from comparing the two.

Host times are reported from the **quietest repeat**. A run repeats the
same inputs in cycles and times each *part* of a cycle (either half of
a deploy, one simulator arm, one edit, one session) under a key; the cycle's time is
the sum over keys of the fastest repeat (:func:`best_cycle_s`). The
sandbox shares its cores: for seconds to minutes at a time neighbours
slow every process by 20-60 %, so the median of a 25 s run moved by
30 % between runs of the same code while the fastest repeat of each
part moved by a few per cent. Contention only ever adds time, which
makes the minimum the estimate of what the code itself costs.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

import catalog
from spans import Recorder

#: construction is repeated so ``setup_s`` rests on a median; the
#: full-size warm-up operation runs once, after the last repeat
BUILD_REPEATS = 3
OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass(frozen=True)
class Budget:
    """How long a phase measures: until ``seconds`` are used up or
    ``max_ops`` operations ran, whichever comes first — but never fewer
    than ``min_ops``."""

    seconds: float
    max_ops: int
    min_ops: int = 3


@dataclass
class Phase:
    """What one measured loop produced."""

    #: timed region of each operation, host seconds
    walls: list[float] = field(default_factory=list)
    #: part key -> host seconds of each repeat of that part; the same
    #: key is the same input, cycle after cycle
    parts: dict[Any, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    facts: dict[str, Any] = field(default_factory=dict)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 8:
            self.problems.append(problem)

    @contextmanager
    def part(self, key: Any) -> Iterator[None]:
        """Time one repeat of the part ``key``."""
        t0 = perf_counter()
        try:
            yield
        finally:
            self.parts.setdefault(key, []).append(perf_counter() - t0)


@contextmanager
def operation(
    phase: Phase, rec: Recorder, op_id: int, part: Any = None
) -> Iterator[None]:
    """The timed region of one operation: counted as attempted, its
    wall appended to ``phase.walls`` (and to the part ``part`` when the
    operation is one part), its spans under one ``op`` root carrying
    ``op_id``."""
    phase.attempted += 1
    rec.op = op_id
    t0 = perf_counter()
    try:
        with rec.span("op"):
            yield
    finally:
        wall = perf_counter() - t0
        phase.walls.append(wall)
        if part is not None:
            phase.parts.setdefault(part, []).append(wall)
        rec.op = -1


class BaseWorkload:
    """Defaults for workloads that hold nothing open, check every
    operation as it completes and repeat one operation."""

    min_ops = 3
    cycle_ops = 1

    def teardown(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def verify(self) -> list[str]:
        return []


def closed_loop(budget: Budget, op: Callable[[int], None]) -> None:
    """Run ``op(i)`` one at a time. A new operation starts only while
    the average iteration so far still fits the time budget, so the
    phase ends close to ``budget.seconds`` instead of one operation
    past it. The collector runs before every operation, outside its
    timed region."""
    start = perf_counter()
    done = 0
    while done < budget.max_ops:
        if done >= budget.min_ops:
            elapsed = perf_counter() - start
            if elapsed + elapsed / done > budget.seconds:
                break
        gc.collect()
        op(done)
        done += 1


def peak_rss_mb() -> float:
    """High-water mark of this process's resident set so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def best_cycle_s(phase: Phase) -> float:
    """Host seconds of one cycle with every part at its fastest repeat."""
    return sum(min(walls) for walls in phase.parts.values())


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (0.0 for no samples)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, round(q * (len(ordered) - 1)))]


def median(samples: list[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def rel_dev_pct(value: float, reference: float) -> float:
    return 100.0 * abs(value - reference) / reference if reference else 0.0


def counter_value(name: str, **labels) -> float:
    """Current value of one of the product's always-on counters."""
    from repro.telemetry import metrics

    instrument = metrics.registry().get(name)
    return instrument.value(**labels) if instrument is not None else 0.0


#: the product's cache counters (``result=hit|miss``) behind the
#: ``*.cache_hit_ratio`` metrics
CACHE_COUNTERS = {
    "rules.cache_hit_ratio": "sdt_rules_cache_total",
    "partition.cache_hit_ratio": "sdt_partition_cache_total",
}


def cache_lookups() -> dict[str, tuple[float, float]]:
    return {
        metric: (
            counter_value(counter, result="hit"),
            counter_value(counter, result="miss"),
        )
        for metric, counter in CACHE_COUNTERS.items()
    }


def hit_ratios(before: dict[str, tuple[float, float]]) -> dict[str, float]:
    """Hit share of each cache's lookups since ``before``."""
    ratios = {}
    for metric, (hits, misses) in cache_lookups().items():
        hits -= before[metric][0]
        misses -= before[metric][1]
        ratios[metric] = hits / (hits + misses) if hits + misses else 0.0
    return ratios


@dataclass
class RunResult:
    workload: str
    seed: int
    traced: bool
    attempted: int
    failed: int
    problems: list[str]
    #: metric name -> value; END_TO_END + the workload's own end-to-end
    #: figures always, every per-layer metric when traced
    metrics: dict[str, float]
    #: sample counts behind the medians (printed beside them)
    samples: dict[str, int]
    stage_table: list[tuple]
    trace_path: Path | None

    @property
    def correct(self) -> bool:
        return self.failed == 0


def run_workload(
    workload: Any,
    name: str,
    *,
    seed: int,
    seconds: float | None,
    trace: bool,
    import_s: float,
) -> RunResult:
    """Set up ``workload`` and measure it. ``seconds=None`` runs the
    workload's fixed operation count instead of a time budget."""
    if seconds is None:
        budget = Budget(math.inf, workload.ops)
    else:
        budget = Budget(seconds / 2 if trace else seconds, 10**9, workload.min_ops)

    builds = []
    try:
        for _ in range(BUILD_REPEATS):
            workload.teardown()
            gc.collect()
            t0 = perf_counter()
            workload.build()
            builds.append(perf_counter() - t0)
        warm_up_s = workload.warm_up()
        untraced = workload.run(budget, Recorder(enabled=False))
        rec = Recorder()
        lookups = cache_lookups()
        traced = workload.run(budget, rec) if trace else None
        cache_ratios = hit_ratios(lookups)
        phases = [p for p in (untraced, traced) if p is not None]
        problems = [p for phase in phases for p in phase.problems]
        final = workload.verify()
        problems += final
    finally:
        workload.teardown()

    values = {
        # imports and the warm-up operation happen once per process;
        # the construction between them is repeated and enters as its
        # median
        "setup_s": import_s + median(builds) + warm_up_s,
        "op_wall_best_s": best_cycle_s(untraced) / workload.cycle_ops,
        "work_per_s": workload.work_per_s(untraced),
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    values.update(workload.workload_metrics(untraced))
    # repeats behind the least-repeated part's minimum
    repeats = min((len(w) for w in untraced.parts.values()), default=0)
    samples = {"op_wall_best_s": repeats, "work_per_s": repeats}

    stage_table: list[tuple] = []
    trace_path = None
    if traced is not None:
        ops = max(1, len(traced.walls))
        layers = {m.name: 0.0 for m in catalog.PER_LAYER}
        for metric in catalog.PER_LAYER:
            # a span is named after its metric, minus the "_s"
            if metric.unit == "s" and metric.name[:-2] in rec.totals:
                layers[metric.name] = rec.self_s(metric.name[:-2]) / ops
        layers["op_wall_p50_s"] = median(untraced.walls)
        layers["bench.trace_overhead_ratio"] = (
            best_cycle_s(traced) / best_cycle_s(untraced)
        )
        # share of the traced operations that some stage span accounts
        # for; both sides are from the same half of the run, so an
        # episode of contention does not move it
        under_op = rec.total_s("op")
        layers["controller.ledger_coverage"] = (
            (under_op - rec.self_s("op")) / under_op if under_op else 0.0
        )
        layers.update(cache_ratios)
        layers.update(workload.layer_metrics(untraced, traced, rec))
        unknown = set(layers) - {m.name for m in catalog.PER_LAYER}
        if unknown:
            raise KeyError(f"{name}: metrics not in the catalogue: {unknown}")
        values.update(layers)
        stage_table = rec.stage_table()
        trace_path = OUT_DIR / f"trace_{name}.jsonl"
        rec.dump(trace_path)

    return RunResult(
        workload=name,
        seed=seed,
        traced=trace,
        attempted=sum(p.attempted for p in phases),
        failed=sum(p.failed for p in phases) + len(final),
        problems=problems,
        metrics=values,
        samples=samples,
        stage_table=stage_table,
        trace_path=trace_path,
    )
