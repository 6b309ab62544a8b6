"""The closed monitor→optimize→reconfigure loop on a live rig."""

from __future__ import annotations

import pytest

from repro.engineering import (
    EngineerParams,
    PortBudget,
    TopologyEngineer,
)
from repro.engineering.loop import (
    APPLIED,
    COOLDOWN,
    HELD,
    VETOED,
    WARMING,
)
from repro.telemetry import metrics
from repro.util.errors import ReproError

from tests.engineering.conftest import RING, Driver

HOT = (("h0", "h3"), ("h1", "h4"))
BUDGET = PortBudget(max_degree=4, max_switch_links=2 * RING)


def _params(**kw) -> EngineerParams:
    defaults = dict(window=0.0, min_gain=0.03, cooldown_steps=0)
    defaults.update(kw)
    return EngineerParams(**defaults)


def test_loop_closes_and_improves_act(rig):
    controller, dep = rig
    engineer = TopologyEngineer(controller, dep, BUDGET, _params())

    # before any traffic the matrix is warming: no mutation
    step = engineer.step()
    assert step.outcome == WARMING and not step.applied

    drv = Driver(controller)
    act_before = drv.run(engineer.deployment, HOT)
    step = engineer.step()
    assert step.outcome == APPLIED and step.applied
    assert step.moves and step.gain > 0.03
    assert all(m.kind == "add" for m in step.moves)
    assert step.rules_pushed > 0 and not step.cap_violation
    # the deployment now carries the engineered links...
    assert engineer.deployment.topology.num_switch_links > RING
    assert engineer.deployment.name == dep.name
    # ...and the replayed workload finishes measurably faster
    act_after = drv.run(engineer.deployment, HOT)
    assert act_after < act_before

    # stable demand on the improved topology: hysteresis holds
    step = engineer.step()
    assert step.outcome == HELD and not step.applied
    assert [s.outcome for s in engineer.steps] == [WARMING, APPLIED, HELD]


def test_cooldown_holds_after_apply(rig):
    controller, dep = rig
    engineer = TopologyEngineer(
        controller, dep, BUDGET, _params(cooldown_steps=2)
    )
    drv = Driver(controller)
    drv.run(engineer.deployment, HOT)
    assert engineer.step().outcome == APPLIED
    # the next two rounds hold without even reading the monitor
    assert engineer.step().outcome == COOLDOWN
    assert engineer.step().outcome == COOLDOWN
    drv.run(engineer.deployment, HOT)
    assert engineer.step().outcome in (HELD, APPLIED)


def test_rules_cap_violation_doubles_cooldown(rig):
    controller, dep = rig
    engineer = TopologyEngineer(
        controller, dep, BUDGET,
        _params(max_rules_pushed=1, cooldown_steps=1),
    )
    reg = metrics.registry()
    violations_before = reg.counter(
        "sdt_engineer_cap_violations_total"
    ).value()
    drv = Driver(controller)
    drv.run(engineer.deployment, HOT)
    step = engineer.step()
    assert step.outcome == APPLIED
    assert step.cap_violation and step.rules_pushed > 1
    assert (
        reg.counter("sdt_engineer_cap_violations_total").value()
        == violations_before + 1
    )
    # penalty: the one-round cooldown doubles to two
    assert engineer.step().outcome == COOLDOWN
    assert engineer.step().outcome == COOLDOWN
    drv.run(engineer.deployment, HOT)
    assert engineer.step().outcome != COOLDOWN


def test_vetoed_swap_is_recorded_not_raised(rig, monkeypatch):
    controller, dep = rig
    engineer = TopologyEngineer(controller, dep, BUDGET, _params())
    drv = Driver(controller)
    drv.run(engineer.deployment, HOT)

    def refuse(config):
        raise ReproError("admission veto")

    monkeypatch.setattr(controller, "reconfigure", refuse)
    step = engineer.step()
    assert step.outcome == VETOED and not step.applied
    assert "admission veto" in step.reason
    assert step.moves  # the intent is kept for the record
    assert engineer.deployment is dep  # nothing was applied


def test_plan_finish_split_matches_step(rig):
    controller, dep = rig
    engineer = TopologyEngineer(controller, dep, BUDGET, _params())
    drv = Driver(controller)
    drv.run(engineer.deployment, HOT)
    plan = engineer.plan()
    assert plan.outcome == APPLIED
    assert plan.config is not None and plan.config.kind == "custom"
    assert plan.config.routing == "shortest-path"
    # an async driver applies the config itself, then hands it back
    deployment, elapsed = controller.reconfigure(plan.config)
    step = engineer.finish(plan, deployment, modeled_time=elapsed)
    assert step.applied and step.rules_pushed > 0
    assert step.modeled_time == pytest.approx(elapsed)
    assert engineer.deployment is deployment


def test_step_telemetry_counts_outcomes(rig):
    controller, dep = rig
    reg = metrics.registry()
    steps_total = reg.counter("sdt_engineer_steps_total")
    warming_before = steps_total.value(outcome=WARMING)
    applied_before = steps_total.value(outcome=APPLIED)
    engineer = TopologyEngineer(controller, dep, BUDGET, _params())
    engineer.step()  # warming
    drv = Driver(controller)
    drv.run(engineer.deployment, HOT)
    engineer.step()  # applied
    assert steps_total.value(outcome=WARMING) == warming_before + 1
    assert steps_total.value(outcome=APPLIED) == applied_before + 1
    assert reg.gauge("sdt_engineer_gain").value() > 0.0
