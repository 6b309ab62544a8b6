"""Event engine semantics."""

import pytest

from repro.netsim import Simulator
from repro.util.errors import SimulationError


def test_events_run_in_time_order():
    sim = Simulator()
    log = []
    sim.schedule(3.0, lambda: log.append("c"))
    sim.schedule(1.0, lambda: log.append("a"))
    sim.schedule(2.0, lambda: log.append("b"))
    sim.run()
    assert log == ["a", "b", "c"]
    assert sim.now == 3.0


def test_ties_fifo():
    sim = Simulator()
    log = []
    for i in range(5):
        sim.schedule(1.0, lambda i=i: log.append(i))
    sim.run()
    assert log == [0, 1, 2, 3, 4]


def test_nested_scheduling():
    sim = Simulator()
    log = []

    def outer():
        log.append(("outer", sim.now))
        sim.schedule(0.5, lambda: log.append(("inner", sim.now)))

    sim.schedule(1.0, outer)
    sim.run()
    assert log == [("outer", 1.0), ("inner", 1.5)]


def test_run_until_stops_clock():
    sim = Simulator()
    log = []
    sim.schedule(1.0, lambda: log.append(1))
    sim.schedule(5.0, lambda: log.append(5))
    sim.run(until=2.0)
    assert log == [1]
    assert sim.now == 2.0
    assert sim.pending == 1
    sim.run()  # resumes
    assert log == [1, 5]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError, match="negative"):
        sim.schedule(-1, lambda: None)


def test_nan_delay_rejected():
    """NaN passes a ``delay < 0`` test; queued, it would poison the
    order of everything behind it."""
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(float("nan"), lambda: None)
    with pytest.raises(SimulationError):
        sim.at(float("nan"), lambda: None)
    assert sim.pending == 0


@pytest.mark.parametrize("bad", [float("inf"), float("-inf")])
def test_infinite_times_rejected(bad):
    """An event at infinity would let a bare ``run()`` set ``now`` to
    inf, after which every later event fires at inf too."""
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(bad, lambda: None)
    with pytest.raises(SimulationError):
        sim.at(bad, lambda: None)
    assert sim.pending == 0
    sim.schedule(1.0, lambda: None)
    assert sim.run() == 1.0


def test_callbacks_receive_their_arguments():
    sim = Simulator()
    log = []
    sim.schedule(1.0, log.append, "a")
    sim.at(0.5, lambda *args: log.append(args), 1, 2, 3)
    sim.schedule(1.0, lambda: log.append("none"))
    sim.run()
    assert log == [(1, 2, 3), "a", "none"]


def test_at_fires_at_exactly_the_time_given():
    """``now + (t - now)`` is not always ``t``; ``at(t)`` must be."""
    start, target = 0.000992951788610287, 0.10274852528222143
    assert start + (target - start) != target  # the case worth testing
    sim = Simulator()
    hit = []
    sim.schedule(start, lambda: sim.at(target, lambda: hit.append(sim.now)))
    # an event scheduled for the same instant by delay shares its bucket
    sim.at(target, lambda: hit.append("first"))
    sim.run()
    assert hit == ["first", target]


def test_at_absolute_time():
    sim = Simulator()
    hit = []
    sim.schedule(1.0, lambda: sim.at(0.5, lambda: hit.append(sim.now)))
    sim.run()
    # past-dated "at" runs immediately (clamped to now)
    assert hit == [1.0]


def test_event_budget_guards_livelock():
    sim = Simulator()

    def loop():
        sim.schedule(0.0, loop)

    sim.schedule(0.0, loop)
    with pytest.raises(SimulationError, match="budget"):
        sim.run(max_events=1000)


def test_event_budget_aborts_after_exactly_n_events():
    """max_events=N runs exactly N events — not N+1 (regression for the
    post-decrement off-by-one)."""
    sim = Simulator()
    processed = []

    def loop():
        processed.append(sim.now)
        sim.schedule(0.0, loop)

    sim.schedule(0.0, loop)
    with pytest.raises(SimulationError, match="budget"):
        sim.run(max_events=10)
    assert len(processed) == 10
    assert sim.events_processed == 10


def test_event_budget_exactly_spent_is_not_an_error():
    """Draining the queue with the budget exactly exhausted succeeds."""
    sim = Simulator()
    for _ in range(5):
        sim.schedule(0.1, lambda: None)
    sim.run(max_events=5)
    assert sim.events_processed == 5


def test_events_processed_counter():
    sim = Simulator()
    for _ in range(7):
        sim.schedule(0.1, lambda: None)
    sim.run()
    assert sim.events_processed == 7


def test_reentrant_run_rejected():
    sim = Simulator()

    def recurse():
        sim.run()

    sim.schedule(0.0, recurse)
    with pytest.raises(SimulationError, match="re-entered"):
        sim.run()
