"""Differential property test: Simulator ≡ one heap of (time, seq).

The reference here *is* the engine as it was before the queue became
per-instant buckets: a single ``heapq`` of ``(fire time, seq, callback,
schedule time)``, ``seq`` breaking ties FIFO. Seeded random programs
run on both in lockstep and must agree on everything observable:

* delays come from a small set, so instants collide, and include 0 —
  a callback re-scheduling into the instant being drained;
* events go in through ``schedule(delay, fn, *args)`` and through
  ``at(time, fn, *args)`` (some of those already past, so clamped to
  ``now``), each carrying zero, one or several arguments of its own;
* callbacks schedule further callbacks (nested), and some raise part
  way through doing so — the rest of their instant must stay queued;
* ``run(until=...)`` stops between, on and after instants, and
  ``run(max_events=...)`` runs out in the middle of an instant; every
  stop is followed by more scheduling and a resumed ``run()``.

After every ``run()`` call the two must show the same outcome (return
value or error text), callback order with fire times and the arguments
each callback received, ``now``,
``events_processed`` and ``pending`` — and, under an installed tracer,
the same observations in ``sdt_netsim_event_depth`` and
``sdt_netsim_queue_residency_seconds``.

Cases are seeded (reproduce by index); counts scale with
``SDT_PROP_CASES`` for CI's stress job.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import pytest

from repro.netsim import Simulator
from repro.telemetry import metrics, trace
from repro.util.errors import SimulationError
from tests.proptools import prop_cases, seeded_cases

ROOT_SEED = 20261004
NUM_CASES = prop_cases(60)

#: exact binary fractions, so colliding instants collide exactly
DELAYS = (0.0, 0.0, 0.25, 0.25, 0.5, 1.0, 2.0)
#: ``until`` offsets from ``now``: on the 0.25 grid (on an instant),
#: off it (between instants), and beyond everything queued
UNTIL_OFFSETS = (0.0, 0.25, 0.3, 0.5, 0.7, 1.0, 1.25, 2.1, 1000.0)
#: ``at`` offsets from ``now``: the delays, plus two already past
AT_OFFSETS = DELAYS + (-0.25, -1.0)
#: argument values: an event carries 0-3 arguments, the last its ident
ARG_VALUES = (None, 0, 1.5, "x", ("t", 2))
HISTOGRAMS = ("sdt_netsim_event_depth", "sdt_netsim_queue_residency_seconds")


class _ReferenceSimulator:
    """The single-heap engine, observation lists in place of histograms."""

    def __init__(self, traced: bool) -> None:
        self.now = 0.0
        self.events_processed = 0
        self._heap: list = []
        self._seq = 0
        self.observed = {name: [] for name in HISTOGRAMS} if traced else None

    def schedule(self, delay, fn, *args) -> None:
        self.at(self.now + delay, fn, *args)

    def at(self, time, fn, *args) -> None:
        self._seq += 1
        heapq.heappush(
            self._heap, (max(time, self.now), self._seq, fn, args, self.now)
        )

    @property
    def pending(self) -> int:
        return len(self._heap)

    def run(self, *, until=None, max_events=None) -> float:
        budget = max_events if max_events is not None else float("inf")
        while self._heap:
            time, _seq, fn, args, sched_at = self._heap[0]
            if until is not None and time > until:
                self.now = until
                break
            if budget <= 0:
                raise SimulationError(
                    f"event budget exhausted at t={self.now:.6f}s "
                    f"({self.events_processed} events; likely livelock)"
                )
            heapq.heappop(self._heap)
            self.now = time
            if self.observed is not None:
                self.observed[HISTOGRAMS[0]].append(len(self._heap) + 1)
                self.observed[HISTOGRAMS[1]].append(time - sched_at)
            fn(*args)
            self.events_processed += 1
            budget -= 1
        return self.now


class _ListHistogram:
    def __init__(self) -> None:
        self.values: list[float] = []

    def observe(self, value: float, **labels) -> None:
        self.values.append(value)


class _RecordingRegistry(metrics.MetricsRegistry):
    """Histograms that keep every observation, in order."""

    def __init__(self) -> None:
        super().__init__()
        self.lists: dict[str, _ListHistogram] = {}

    def histogram(self, name, help="", buckets=()):
        return self.lists.setdefault(name, _ListHistogram())


class _Boom(Exception):
    pass


@dataclass
class _Node:
    """One scripted callback: log, then schedule ``children`` in order,
    raising before child number ``raises_at`` (``len`` = after all).
    It is queued with ``args`` as its arguments, through ``at(now +
    offset)`` when ``via_at`` is set and ``schedule(offset)`` otherwise."""

    ident: int
    args: tuple = ()
    via_at: bool = False
    children: list[tuple[float, "_Node"]] = field(default_factory=list)
    raises_at: int | None = None


def _random_offset(rng, node: _Node) -> float:
    offsets = AT_OFFSETS if node.via_at else DELAYS
    return offsets[int(rng.integers(0, len(offsets)))]


def _random_node(rng, counter: list[int], depth: int) -> _Node:
    ident = counter[0]
    counter[0] += 1
    arity = int(rng.integers(0, 4))
    args = tuple(
        ARG_VALUES[int(rng.integers(0, len(ARG_VALUES)))]
        for _ in range(arity - 1)
    ) + (ident,) if arity else ()
    node = _Node(ident, args, via_at=bool(rng.random() < 0.3))
    if depth < 4:
        for _ in range(int(rng.integers(0, 4 - depth // 2))):
            child = _random_node(rng, counter, depth + 1)
            node.children.append((_random_offset(rng, child), child))
    if rng.random() < 0.06:
        node.raises_at = int(rng.integers(0, len(node.children) + 1))
    return node


def _random_program(rng) -> tuple[list[tuple], int]:
    """``("schedule", delay, node)`` / ``("run", until offset, budget)``
    steps, and how many nodes they hold."""
    counter = [0]
    steps: list[tuple] = []
    for _round in range(int(rng.integers(2, 6))):
        for _ in range(int(rng.integers(1, 7))):
            node = _random_node(rng, counter, 0)
            steps.append(("schedule", _random_offset(rng, node), node))
        for _ in range(int(rng.integers(1, 4))):
            until = (
                UNTIL_OFFSETS[int(rng.integers(0, len(UNTIL_OFFSETS)))]
                if rng.random() < 0.6
                else None
            )
            budget = int(rng.integers(0, 7)) if rng.random() < 0.4 else None
            steps.append(("run", until, budget))
    return steps, counter[0]


def _enqueue(sim, offset: float, node: _Node, log: list) -> None:
    fire = _callback(sim, node, log)
    if node.via_at:
        sim.at(sim.now + offset, fire, *node.args)
    else:
        sim.schedule(offset, fire, *node.args)


def _callback(sim, node: _Node, log: list):
    def fire(*args) -> None:
        # the received arguments are logged, not just checked, so a
        # mix-up shows as a difference from the reference
        log.append((node.ident, sim.now, args))
        assert args == node.args, (node.ident, args)
        for index, (offset, child) in enumerate(node.children):
            if node.raises_at == index:
                raise _Boom(node.ident)
            _enqueue(sim, offset, child, log)
        if node.raises_at == len(node.children):
            raise _Boom(node.ident)

    return fire


def _run(sim, log: list, **kwargs) -> tuple:
    try:
        outcome = ("returned", sim.run(**kwargs))
    except (SimulationError, _Boom) as exc:
        outcome = (type(exc).__name__, str(exc))
    return (
        outcome, tuple(log), sim.now, sim.events_processed, sim.pending,
    )


def _play(sim, steps: list[tuple], nodes: int) -> list[tuple]:
    log: list = []
    seen = []
    for kind, a, b in steps:
        if kind == "schedule":
            _enqueue(sim, a, b, log)
        else:
            until = None if a is None else sim.now + a
            seen.append(_run(sim, log, until=until, max_events=b))
    # drain: every raising node ends one run(), so this terminates
    for _ in range(nodes + 1):
        seen.append(_run(sim, log))
        if sim.pending == 0:
            break
    assert sim.pending == 0
    return seen


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_event_order_matches_the_single_heap(traced):
    for case, rng in seeded_cases(NUM_CASES, ROOT_SEED, "engine-order"):
        steps, nodes = _random_program(rng)
        reference = _ReferenceSimulator(traced)
        expected = _play(reference, steps, nodes)

        recording = _RecordingRegistry()
        previous = metrics.set_registry(recording)
        if traced:
            trace.install_tracer()
        try:
            got = _play(Simulator(), steps, nodes)
        finally:
            trace.uninstall_tracer()
            metrics.set_registry(previous)

        for index, (want, have) in enumerate(zip(expected, got)):
            assert have == want, f"case {case}: run() call {index} differs"
        assert len(got) == len(expected), f"case {case}"
        if traced:
            for name in HISTOGRAMS:
                assert recording.lists[name].values == reference.observed[name], (
                    f"case {case}: {name} observations differ"
                )
        else:
            assert not recording.lists, f"case {case}: untraced run observed"


def _has_zero_delay_child(node: _Node) -> bool:
    return any(
        delay == 0.0 or _has_zero_delay_child(child)
        for delay, child in node.children
    )


def _nodes(steps: list[tuple]):
    """Every node of a program with the offset it is queued at."""
    stack = [(a, b) for kind, a, b in steps if kind == "schedule"]
    while stack:
        offset, node = stack.pop()
        yield offset, node
        stack.extend(node.children)


def test_programs_reach_the_corners():
    """The generator is only worth its cases if they hit the situations
    the differential exists for."""
    hit = dict.fromkeys(
        ("collision", "zero_delay_child", "raise", "budget", "until",
         "no_args", "one_arg", "several_args", "at", "at_past"), 0
    )
    for _case, rng in seeded_cases(NUM_CASES, ROOT_SEED, "engine-order"):
        steps, nodes = _random_program(rng)
        seen = _play(_ReferenceSimulator(False), steps, nodes)
        times = [t for _ident, t, _args in seen[-1][1]]
        hit["collision"] += len(times) != len(set(times))
        hit["raise"] += any(o[0][0] == "_Boom" for o in seen)
        hit["budget"] += any(o[0][0] == "SimulationError" for o in seen)
        hit["until"] += any(k == "run" and a is not None for k, a, _ in steps)
        hit["zero_delay_child"] += any(
            k == "schedule" and _has_zero_delay_child(b) for k, _a, b in steps
        )
        queued = list(_nodes(steps))
        arity = {len(node.args) for _offset, node in queued}
        hit["no_args"] += 0 in arity
        hit["one_arg"] += 1 in arity
        hit["several_args"] += any(n > 1 for n in arity)
        hit["at"] += any(node.via_at for _offset, node in queued)
        hit["at_past"] += any(
            node.via_at and offset < 0 for offset, node in queued
        )
    assert all(count >= NUM_CASES // 10 for count in hit.values()), hit
