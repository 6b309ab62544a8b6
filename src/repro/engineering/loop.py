"""The monitor→optimize→reconfigure loop (DESIGN.md §9).

:class:`TopologyEngineer` ties the pieces together: read the traffic
matrix out of the controller's Network Monitor, ask the local search
for a proposal, and — when the proposal clears hysteresis — apply it.
:meth:`step` applies it through the controller's incremental
``reconfigure``, which stages only the rule delta inside one
make-before-break ControlTransaction (so transient capacity is
validated before any switch is touched, and a mid-commit failure rolls
back with the old topology still live).

Disruption is capped twice: *a priori* by ``max_moves`` per step (the
incremental path pushes O(changed links) rules), and *measured* — the
rules actually pushed are read back from the
``sdt_reconfig_rules_pushed_total`` counter; a step exceeding
``max_rules_pushed`` records a cap violation and doubles the cooldown,
so a misconfigured cap degrades to slower engineering rather than
sustained churn. After every applied step the engineer holds for
``cooldown_steps`` observation rounds so the monitor re-converges on
the *new* topology before the next proposal.

The plan/finish split exists for the async service path: ``plan()`` is
pure observation + search, ``finish()`` is bookkeeping; a driver that
must apply the config through ``ControlPlaneService.submit`` (the
``repro engineer --watch`` mode) awaits between the two, while the
synchronous :meth:`step` composes them around a direct
``controller.reconfigure``. Both apply the same incremental edit
(:meth:`~repro.core.controller.controller.SDTController.edit`), so
they push the same rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.controller.config import TopologyConfig
from repro.engineering.objective import ObjectiveWeights
from repro.engineering.search import (
    Move,
    PortBudget,
    Proposal,
    SearchParams,
    apply_moves,
    propose,
)
from repro.engineering.traffic import TrafficMatrix, extract_traffic_matrix
from repro.telemetry import metrics, trace

#: outcome labels for ``sdt_engineer_steps_total``
APPLIED = "applied"
HELD = "held"  # hysteresis: proposal below min_gain
WARMING = "warming"  # no measurable demand yet
COOLDOWN = "cooldown"  # holding after a recent apply
VETOED = "vetoed"  # controller refused the swap


@dataclass(frozen=True)
class EngineerParams:
    """Knobs for one engineering loop."""

    #: history window for demand means (None = full ring buffer)
    window: float | None = None
    #: monitor warm-up threshold per access port
    min_samples: int = 2
    #: a-priori disruption cap: link edits per step
    max_moves: int = 4
    #: hysteresis: minimum relative objective gain to act
    min_gain: float = 0.05
    #: measured disruption cap: rules pushed per step (0 = uncapped)
    max_rules_pushed: int = 0
    #: observation rounds to hold after an applied step
    cooldown_steps: int = 1
    weights: ObjectiveWeights = field(default_factory=ObjectiveWeights)

    def search_params(self) -> SearchParams:
        return SearchParams(
            max_moves=self.max_moves,
            min_gain=self.min_gain,
            weights=self.weights,
        )


@dataclass(frozen=True)
class StepPlan:
    """One observation round's decision, before any mutation."""

    index: int
    outcome: str  # APPLIED intent is signalled by config != None
    reason: str
    tm: TrafficMatrix | None = None
    proposal: Proposal | None = None
    config: TopologyConfig | None = None
    #: sdt_reconfig_rules_pushed_total snapshot, for the measured cap
    pushed_before: float = 0.0


@dataclass(frozen=True)
class EngineerStep:
    """The record of one completed engineering step."""

    index: int
    outcome: str
    reason: str
    applied: bool
    moves: tuple[Move, ...] = ()
    gain: float = 0.0
    demand_total: float = 0.0
    before: dict | None = None
    after: dict | None = None
    rules_pushed: int = 0
    modeled_time: float = 0.0
    cap_violation: bool = False

    def summary(self) -> dict:
        return {
            "index": self.index,
            "outcome": self.outcome,
            "reason": self.reason,
            "applied": self.applied,
            "moves": [m.summary() for m in self.moves],
            "gain": self.gain,
            "demand_total": self.demand_total,
            "before": self.before,
            "after": self.after,
            "rules_pushed": self.rules_pushed,
            "modeled_time": self.modeled_time,
            "cap_violation": self.cap_violation,
        }


class TopologyEngineer:
    """Stateful driver of the engineering loop over one deployment."""

    def __init__(
        self,
        controller,
        deployment,
        budget: PortBudget,
        params: EngineerParams = EngineerParams(),
    ) -> None:
        self.controller = controller
        self.deployment = deployment
        self.budget = budget
        self.params = params
        self.steps: list[EngineerStep] = []
        self._cooldown = 0

    # --- observe + decide (pure) ---------------------------------------
    def observe(self) -> TrafficMatrix:
        return extract_traffic_matrix(
            self.controller.monitor,
            self.deployment,
            window=self.params.window,
            min_samples=self.params.min_samples,
        )

    def plan(self) -> StepPlan:
        """One observation round: traffic matrix, search, decision."""
        index = len(self.steps)
        with trace.span("engineer.plan", index=index) as sp:
            if self._cooldown > 0:
                self._cooldown -= 1
                sp.set("outcome", COOLDOWN)
                return StepPlan(
                    index=index,
                    outcome=COOLDOWN,
                    reason=f"cooling down ({self._cooldown + 1} left)",
                )
            tm = self.observe()
            metrics.registry().gauge("sdt_engineer_demand_total").set(
                tm.total
            )
            if not tm.ready:
                sp.set("outcome", WARMING)
                return StepPlan(
                    index=index,
                    outcome=WARMING,
                    reason=(
                        f"no measurable demand "
                        f"({tm.warming_ports} ports warming up)"
                    ),
                    tm=tm,
                )
            proposal = propose(
                self.deployment.topology,
                tm,
                self.budget,
                self.params.search_params(),
            )
            sp.set("gain", proposal.gain)
            if proposal.empty:
                sp.set("outcome", HELD)
                return StepPlan(
                    index=index,
                    outcome=HELD,
                    reason=(
                        f"best gain below hysteresis threshold "
                        f"{self.params.min_gain:g}"
                    ),
                    tm=tm,
                    proposal=proposal,
                )
            sp.set("outcome", APPLIED)
            sp.set("moves", len(proposal.moves))
            return StepPlan(
                index=index,
                outcome=APPLIED,
                reason=f"gain {proposal.gain:.1%} over {len(proposal.moves)} moves",
                tm=tm,
                proposal=proposal,
                config=self._config_for(proposal),
                pushed_before=metrics.registry()
                .counter("sdt_reconfig_rules_pushed_total")
                .value(),
            )

    def _config_for(self, proposal: Proposal) -> TopologyConfig:
        """The engineered topology as a deployable config
        (:meth:`TopologyConfig.from_topology`); lossless and monitor
        cadence carry over."""
        engineered = apply_moves(self.deployment.topology, proposal.moves)
        old = self.deployment.config
        return TopologyConfig.from_topology(
            engineered,
            lossless=self.deployment.lossless,
            monitor_interval=(
                old.monitor_interval if old is not None else 1.0
            ),
            label="engineered",
        )

    # --- bookkeeping after the (attempted) mutation ---------------------
    def finish(
        self,
        plan: StepPlan,
        deployment=None,
        *,
        modeled_time: float = 0.0,
        error: Exception | None = None,
    ) -> EngineerStep:
        """Record the outcome of ``plan``; returns the step record."""
        reg = metrics.registry()
        proposal = plan.proposal
        if plan.config is None:
            step = EngineerStep(
                index=plan.index,
                outcome=plan.outcome,
                reason=plan.reason,
                applied=False,
                gain=proposal.gain if proposal else 0.0,
                demand_total=plan.tm.total if plan.tm else 0.0,
                before=proposal.before.summary() if proposal else None,
            )
        elif error is not None:
            step = EngineerStep(
                index=plan.index,
                outcome=VETOED,
                reason=f"controller refused swap: {error}",
                applied=False,
                moves=proposal.moves if proposal else (),
                gain=proposal.gain if proposal else 0.0,
                demand_total=plan.tm.total if plan.tm else 0.0,
                before=proposal.before.summary() if proposal else None,
            )
        else:
            assert proposal is not None and deployment is not None
            self.deployment = deployment
            pushed = int(
                reg.counter("sdt_reconfig_rules_pushed_total").value()
                - plan.pushed_before
            )
            violated = (
                self.params.max_rules_pushed > 0
                and pushed > self.params.max_rules_pushed
            )
            self._cooldown = self.params.cooldown_steps * (2 if violated else 1)
            if violated:
                reg.counter("sdt_engineer_cap_violations_total").inc()
            for m in proposal.moves:
                reg.counter("sdt_engineer_moves_total").inc(1, kind=m.kind)
            reg.counter("sdt_engineer_rules_pushed_total").inc(pushed)
            obj = reg.gauge("sdt_engineer_objective")
            obj.set(proposal.after.dwapl, component="dwapl")
            obj.set(proposal.after.mlu, component="mlu")
            obj.set(proposal.after.value, component="value")
            reg.gauge("sdt_engineer_gain").set(proposal.gain)
            step = EngineerStep(
                index=plan.index,
                outcome=APPLIED,
                reason=plan.reason,
                applied=True,
                moves=proposal.moves,
                gain=proposal.gain,
                demand_total=plan.tm.total if plan.tm else 0.0,
                before=proposal.before.summary(),
                after=proposal.after.summary(),
                rules_pushed=pushed,
                modeled_time=modeled_time,
                cap_violation=violated,
            )
        reg.counter("sdt_engineer_steps_total").inc(1, outcome=step.outcome)
        trace.event(
            "engineer.step",
            index=step.index,
            outcome=step.outcome,
            moves=len(step.moves),
            gain=step.gain,
            rules_pushed=step.rules_pushed,
        )
        self.steps.append(step)
        return step

    # --- the synchronous loop body --------------------------------------
    def step(self) -> EngineerStep:
        """One full monitor→optimize→reconfigure round, applied through
        the controller's incremental reconfigure."""
        from repro.util.errors import ReproError

        plan = self.plan()
        if plan.config is None:
            return self.finish(plan)
        try:
            deployment, elapsed = self.controller.reconfigure(plan.config)
        except ReproError as exc:
            return self.finish(plan, error=exc)
        return self.finish(plan, deployment, modeled_time=elapsed)
