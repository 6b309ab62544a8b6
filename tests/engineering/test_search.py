"""Bounded local search: seeded properties and directed moves.

The seeded properties are the contract the engineer loop and the CI
bench gate rely on: ``propose`` is a pure function of (topology,
traffic matrix, budget, params) — byte-identical across calls — and
never returns a topology outside the port budgets or one that
disconnects a switch.
"""

from __future__ import annotations

import numpy as np

from repro.costmodel.model import SDT_64, SDT_128
from repro.engineering import (
    Move,
    PortBudget,
    SearchParams,
    apply_moves,
    propose,
)
from repro.engineering.objective import connected, switch_adjacency
from repro.engineering.traffic import TrafficMatrix
from repro.topology.diff import link_key
from repro.topology.graph import Topology

from tests.proptools import prop_cases, random_topology, seeded_cases


def _random_tm(rng: np.random.Generator, topo: Topology) -> TrafficMatrix:
    switches = sorted(topo.switches)
    demand: dict[tuple[str, str], float] = {}
    if len(switches) >= 2:
        for _ in range(int(rng.integers(1, 7))):
            i, j = rng.choice(len(switches), size=2, replace=False)
            pair = (switches[int(i)], switches[int(j)])
            demand[pair] = demand.get(pair, 0.0) + float(
                rng.uniform(0.05, 1.0)
            )
    link_load = {
        link_key(*l.endpoints): float(rng.uniform(0.0, 1.0))
        for l in topo.switch_links
    }
    return TrafficMatrix(demand=demand, link_load=link_load)


def test_propose_is_deterministic_and_respects_budgets():
    for idx, rng in seeded_cases(prop_cases(25), 0x5D7E, "engineer-search"):
        topo = random_topology(
            rng, min_switches=2, max_switches=8,
            max_extra_links=5, max_hosts=3, name=f"rand{idx}",
        )
        tm = _random_tm(rng, topo)
        budget = PortBudget(
            max_degree=int(rng.integers(2, 5)),
            max_switch_links=topo.num_switch_links
            + int(rng.integers(0, 3)),
        )
        params = SearchParams(
            max_moves=int(rng.integers(1, 5)), min_gain=0.0
        )
        first = propose(topo, tm, budget, params)
        again = propose(topo, tm, budget, params)
        assert first == again, f"case {idx}: propose is not deterministic"
        if first.empty:
            continue
        assert len(first.moves) <= params.max_moves, f"case {idx}"
        engineered = apply_moves(topo, first.moves)
        adj = switch_adjacency(engineered)
        assert budget.allows(adj), (
            f"case {idx}: proposal exceeds the port budget"
        )
        assert connected(adj), f"case {idx}: proposal orphaned a switch"
        assert first.after.value < first.before.value, f"case {idx}"
        assert first.gain > 0.0, f"case {idx}"
        # hosts survive the rebuild untouched
        assert set(engineered.hosts) == set(topo.hosts), f"case {idx}"


def _line4() -> Topology:
    topo = Topology("line4")
    for i in range(4):
        topo.add_switch(f"s{i}")
    for i in range(3):
        topo.connect(f"s{i}", f"s{i + 1}")
    return topo


def test_hot_pair_gets_a_direct_link():
    tm = TrafficMatrix(demand={("s0", "s3"): 1.0})
    budget = PortBudget(max_degree=3, max_switch_links=8)
    proposal = propose(_line4(), tm, budget, SearchParams(min_gain=0.05))
    assert Move("add", "s0", "s3") in proposal.moves
    assert proposal.after.dwapl == 1.0
    assert proposal.gain > 0.05


def test_hysteresis_returns_empty_below_min_gain():
    tm = TrafficMatrix(demand={("s0", "s3"): 1.0})
    budget = PortBudget(max_degree=3, max_switch_links=8)
    # relative gain is always < 1.0, so this threshold blocks everything
    proposal = propose(_line4(), tm, budget, SearchParams(min_gain=0.999))
    assert proposal.empty
    assert proposal.gain == 0.0
    assert proposal.before == proposal.after


def test_no_demand_means_no_moves():
    proposal = propose(
        _line4(), TrafficMatrix(), PortBudget(3, 8), SearchParams()
    )
    assert proposal.empty


def test_wiring_budget_forces_a_swap():
    topo = Topology("ring4")
    for i in range(4):
        topo.add_switch(f"s{i}")
    for i in range(4):
        topo.connect(f"s{i}", f"s{(i + 1) % 4}")
    # at the wiring budget: linking the hot diagonal must pay for
    # itself by dropping a cold ring link (the bidirectional move)
    tm = TrafficMatrix(
        demand={("s0", "s2"): 1.0},
        link_load={link_key(f"s{i}", f"s{(i + 1) % 4}"): 0.0 for i in range(4)},
    )
    budget = PortBudget(max_degree=3, max_switch_links=4)
    proposal = propose(topo, tm, budget, SearchParams(min_gain=0.05))
    kinds = sorted(m.kind for m in proposal.moves)
    assert kinds == ["add", "remove"]
    assert Move("add", "s0", "s2") in proposal.moves
    adj = switch_adjacency(apply_moves(topo, proposal.moves))
    assert budget.allows(adj) and connected(adj)


def test_budget_from_cost_model():
    # SDT 128x100G: the 4-way split still carries >= 25G, so the
    # wiring budget is a full 512-port complex's 256 link pairs
    budget = PortBudget.from_cost_model(SDT_128, max_degree=4)
    assert budget.max_switch_links == 256
    assert budget.max_degree == 4
    smaller = PortBudget.from_cost_model(SDT_64, max_degree=4)
    assert 0 < smaller.max_switch_links < budget.max_switch_links
    # an impossible rate yields an empty wiring budget, not a crash
    none = PortBudget.from_cost_model(SDT_64, rate=1e15, max_degree=4)
    assert none.max_switch_links == 0


def test_budget_allows_checks_both_limits():
    adj = {"a": {"b", "c"}, "b": {"a", "c"}, "c": {"a", "b"}}
    assert PortBudget(max_degree=2, max_switch_links=3).allows(adj)
    assert not PortBudget(max_degree=1, max_switch_links=3).allows(adj)
    assert not PortBudget(max_degree=2, max_switch_links=2).allows(adj)
