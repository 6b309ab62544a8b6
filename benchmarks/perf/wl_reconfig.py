"""``reconfig_edits_k8``: seeded 1-link incremental edits.

A fat-tree k=8 (4 x ``SDT-Eval-256x10G``, custom/lossy config) is
deployed in set-up. Each pick from ``removable_switch_links`` then
costs two operations: ``reconfigure(topology without the link)`` and
``reconfigure(base)``. The picks are a fixed sample of the links, walked
in seeded order and then again, cycle after cycle, so that every edit
has repeats to take the quietest of; a seeded *sample* of 16 links
moved the result by 11 % from seed to seed, because one link costs
35 ms to edit and another 130 ms. This is the paper's headline operation, and
the only workload where ``diff_topologies``, ``extend_partition``,
``project_delta``, the ``RuleCache`` and ``stage_delta`` do the work;
it also uses the openflow layer the other way round (strict deletes and
small adds instead of one bulk add), so an install path that got
faster for bulk adds but slower for deletes shows here.
"""

from __future__ import annotations

import gc
import random
from collections import Counter
from contextlib import ExitStack

import ledger
from ledger import BaseWorkload, Budget, Phase
from spans import Recorder
from wl_deploy import custom_config, wrap_control_plane

from repro.core import SDTController, build_cluster_for
from repro.hardware import EVAL_256x10G
from repro.topology import fat_tree
from repro.topology.diff import rebuild, removable_switch_links

_INCREMENTAL = ("sdt_controller_reconfigure_mode_total", {"mode": "incremental"})
_PUSHED = "sdt_reconfig_rules_pushed_total"
_UNCHANGED = "sdt_reconfig_rules_unchanged_total"


#: every 29th removable link in the topology's own order, a stride that
#: shares no factor with the pod structure: at k=8, 5 agg-core and 3
#: edge-agg links in 7 of the 8 pods. With 24 picks a run held
#: 6 repeats of each edit and runs of the same code spread by 10 % when
#: the host was busy, with 12 picks by 8 %
STRIDE = 29


class ReconfigEdits(BaseWorkload):
    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.k, self.switches = (4, 2) if smoke else (8, 4)
        #: one loop iteration is a pick = two edits (remove, restore)
        picks = 2 if smoke else 8
        self.min_ops = picks  # a time-bounded run sees every pick
        self.cycle_ops = 2 * picks
        self.ops = picks if smoke else 12 * picks

    def build(self) -> None:
        self.base = fat_tree(self.k)
        self.base_config = custom_config(self.base)
        removable = removable_switch_links(self.base)
        self.warm_up_link = removable[-1]  # not one of the picks
        self.links = removable[::STRIDE][: self.min_ops]
        # generating the edited input is not part of the operation
        self.edited = {
            link: custom_config(rebuild(self.base, drop_links={link}))
            for link in (*self.links, self.warm_up_link)
        }
        random.Random(self.seed).shuffle(self.links)
        self.picked = 0
        self.cluster = build_cluster_for(
            [self.base], self.switches, EVAL_256x10G
        )
        self.controller = SDTController(self.cluster)
        self.controller.deploy(self.base_config)

    def warm_up(self) -> float:
        warmup = Phase()
        self._pick(warmup, Recorder(enabled=False), self.warm_up_link)
        return sum(warmup.walls)

    def _next(self):
        self.picked += 1
        return self.links[(self.picked - 1) % len(self.links)]

    def _pick(self, phase: Phase, rec: Recorder, link) -> None:
        for restore, config in enumerate((self.edited[link], self.base_config)):
            if restore:  # the loop collected before the first edit
                gc.collect()
            name, labels = _INCREMENTAL
            incremental = ledger.counter_value(name, **labels)
            edit = (link, restore)
            with ledger.operation(phase, rec, phase.attempted, part=edit):
                _, modeled = self.controller.reconfigure(config)
            if ledger.counter_value(name, **labels) != incremental + 1:
                phase.fail(f"edit {phase.attempted} ({link}) fell back to a cold swap")
                continue
            phase.facts["incremental"] = phase.facts.get("incremental", 0) + 1
            phase.facts.setdefault("modeled_s", {})[edit] = modeled

    def run(self, budget: Budget, rec: Recorder) -> Phase:
        phase = Phase()
        before = {
            "pushed": ledger.counter_value(_PUSHED),
            "unchanged": ledger.counter_value(_UNCHANGED),
        }
        with ExitStack() as stack:
            wrap_control_plane(stack, rec)
            ledger.closed_loop(budget, lambda _i: self._pick(phase, rec, self._next()))
        edits = max(1, phase.facts.get("incremental", 0))
        phase.facts.update(
            pushed_per_edit=(ledger.counter_value(_PUSHED) - before["pushed"]) / edits,
            unchanged_per_edit=(
                ledger.counter_value(_UNCHANGED) - before["unchanged"]
            ) / edits,
        )
        return phase

    def verify(self) -> list[str]:
        """After the last restore the switches must hold exactly what a
        from-scratch deploy of the base installs."""
        reference = build_cluster_for([self.base], self.switches, EVAL_256x10G)
        SDTController(reference).deploy(self.base_config)
        return [
            f"{name}: entries differ from a from-scratch deploy of the base"
            for name, switch in self.cluster.switches.items()
            if Counter(switch.entry_keys())
            != Counter(reference.switches[name].entry_keys())
        ]

    def work_per_s(self, phase: Phase) -> float:
        return self.cycle_ops / ledger.best_cycle_s(phase)

    def workload_metrics(self, phase: Phase) -> dict[str, float]:
        # per edit of the cycle, so it does not depend on where in a
        # cycle a time-bounded run stopped
        modeled = phase.facts.get("modeled_s", {})
        return {"modeled_op_s": sum(modeled.values()) / max(1, len(modeled))}

    def layer_metrics(
        self, untraced: Phase, traced: Phase, rec: Recorder
    ) -> dict[str, float]:
        facts = traced.facts
        deployment = self.controller.deployments[0]
        return {
            "controller.incremental_ratio": (
                traced.facts.get("incremental", 0) / traced.attempted
            ),
            "controller.reconfigure_p90_s": ledger.percentile(untraced.walls, 0.9),
            "openflow.rules_pushed_per_edit": facts["pushed_per_edit"],
            "openflow.rules_unchanged_per_edit": facts["unchanged_per_edit"],
            "rules.rules": deployment.rules.count(),
            "rules.blocks": len(deployment.rules.blocks),
            "routing.route_entries": len(deployment.routes),
        }
