"""``deploy_lossy_k10`` and ``deploy_lossless_k10``: cold deploys.

One operation is a deploy of a fat-tree on a fresh cluster and a fresh
controller (cold partition and rule caches), made the way
``SDTController.deploy()`` makes it: ``prepare()`` then
``deploy_prepared()``, the controller's public split, timed as two parts
so that each has its own fastest repeat. The two workloads push the
same pipeline from opposite ends:

* *lossy k=10* uses the custom / shortest-path / ``lossless=False``
  config that ``repro bench --suite scale`` uses. Deadlock Avoidance is
  skipped and FlowMod materialization and the transaction commit are
  62 % of the operation. (At k=14, 171,500 rules and 2.3 s an operation,
  a run held 8 repeats and runs of the same code spread by 13 %; at
  k=12 by 9 %. k=10 is 0.4 s, the install share was 71 % at k=14, and
  rules per second fall from 76k to 65k between the two.)
* *lossless k=10* is what ``TopologyConfig("fat-tree", {"k": 10})``
  gives a user by default — the same topology and the same 32,500
  rules: auto (up/down) routing and a CDG acyclicity check. Routing and deadlock checking are about two-thirds of the
  operation and the 32,500-rule install is small.

The seed does not enter either: the input is the paper's fixed
topology.
"""

from __future__ import annotations

from contextlib import ExitStack

import ledger
from ledger import BaseWorkload, Budget, Phase
from spans import Recorder

from repro.core import SDTController, TopologyConfig, build_cluster_for
from repro.core.controller import config as config_module
from repro.core.controller import controller as controller_module
from repro.core.projection.linkproj import LinkProjection
from repro.core.rules import RuleSet
from repro.hardware import SCALE_2048x10G
from repro.openflow.channel import ControlChannel
from repro.openflow.flowtable import FlowTable
from repro.openflow.switch import OpenFlowSwitch
from repro.openflow.transaction import ControlTransaction
from repro.partition.cache import PartitionCache
from repro.topology import fat_tree
from repro.topology.graph import Topology


def custom_config(topology: Topology) -> TopologyConfig:
    """``topology`` as a self-contained custom config: shortest-path
    routing (works on edited topologies too) and lossy mode (Deadlock
    Avoidance does not veto edits) — the config ``repro bench`` deploys
    in its scale and reconfig suites."""
    return TopologyConfig(
        kind="custom",
        params={
            "name": topology.name,
            "switches": list(topology.switches),
            "hosts": list(topology.hosts),
            "links": [list(link.endpoints) for link in topology.links],
        },
        routing="shortest-path",
        lossless=False,
    )


def control_plane_wraps() -> list[tuple]:
    """``(owner, key, span)`` for every control-plane callable the
    deploy and reconfigure paths go through, named where the controller
    looks it up."""
    strategies = controller_module._STRATEGIES
    return [
        (config_module.TopologyConfig, "build", "topology.build"),
        (strategies, "auto", "routing.routes"),
        (strategies, "shortest-path", "routing.routes"),
        (controller_module, "assert_deadlock_free", "routing.deadlock"),
        (PartitionCache, "partition", "partition.partition"),
        (LinkProjection, "project", "projection.project"),
        (controller_module, "synthesize_rules", "rules.synthesize"),
        (RuleSet, "mods", "rules.materialize"),
        (ControlTransaction, "stage_rules", "openflow.stage"),
        (ControlTransaction, "validate", "openflow.validate"),
        (ControlTransaction, "commit", "openflow.commit"),
        (ControlChannel, "send_batch", "openflow.send_batch"),
        (OpenFlowSwitch, "add_flow_batch", "openflow.switch_add_batch"),
        (FlowTable, "add_batch", "openflow.table_add_batch"),
        (OpenFlowSwitch, "remove_flows", "openflow.remove_flows"),
        # only the incremental reconfigure path reaches these
        (controller_module, "diff_topologies", "topology.diff"),
        (controller_module, "extend_partition", "partition.extend"),
        (controller_module, "project_delta", "projection.delta"),
        (controller_module, "split_ruleset_delta", "rules.split_delta"),
        (ControlTransaction, "stage_delta", "openflow.stage_delta"),
    ]


def wrap_control_plane(stack: ExitStack, rec: Recorder) -> None:
    for owner, key, name in control_plane_wraps():
        stack.enter_context(rec.wrap(owner, key, name))


def cut_links(deployment) -> int:
    """Logical switch links whose ends landed on different switches."""
    part_of = deployment.projection.partition.part_of
    return sum(
        1
        for link in deployment.topology.switch_links
        if part_of(link.a.node) != part_of(link.b.node)
    )


class Deploy(BaseWorkload):
    """Both cold-deploy workloads; ``lossless`` picks the config."""

    def __init__(self, name: str, seed: int, smoke: bool) -> None:
        del seed  # fixed input, see the module docstring
        self.lossless = name == "deploy_lossless_k10"
        if smoke:
            self.k, self.switches, self.rules, self.ops = 4, 2, 400, 40
        elif self.lossless:
            self.k, self.switches, self.rules, self.ops = 10, 6, 32_500, 7
        else:
            self.k, self.switches, self.rules, self.ops = 10, 6, 32_500, 30
        self.first_deploy_s = 0.0

    def build(self) -> None:
        self.topology = fat_tree(self.k)
        self.config = (
            TopologyConfig("fat-tree", {"k": self.k})
            if self.lossless
            else custom_config(self.topology)
        )

    def warm_up(self) -> float:
        warmup = Phase()
        self._deploy(warmup, Recorder(enabled=False), 0)
        self.first_deploy_s = warmup.walls[0]
        return self.first_deploy_s

    def _deploy(self, phase: Phase, rec: Recorder, index: int) -> None:
        cluster = rec.timed(
            "hardware.build_cluster",
            build_cluster_for, [self.topology], self.switches, SCALE_2048x10G,
        )
        controller = SDTController(cluster)
        with ledger.operation(phase, rec, index):
            with phase.part("prepare"):
                prepared = controller.prepare(self.config)
            with phase.part("install"):
                deployment = controller.deploy_prepared(prepared)
        installed = sum(sw.num_entries for sw in cluster.switches.values())
        if deployment.rules.count() != self.rules or installed != self.rules:
            phase.fail(
                f"deploy {index}: {deployment.rules.count()} rules compiled, "
                f"{installed} installed, expected {self.rules}"
            )
            return
        # plain numbers only: holding the deployment would keep this
        # cluster alive into the next operation and double peak_rss_mb
        phase.facts = {
            "modeled_op_s": deployment.deployment_time,
            "routing.route_entries": len(deployment.routes),
            "partition.cut_links": cut_links(deployment),
            "rules.rules": deployment.rules.count(),
            "rules.blocks": len(deployment.rules.blocks),
            "openflow.flow_mods": cluster.control.total_flow_mods,
        }

    def run(self, budget: Budget, rec: Recorder) -> Phase:
        phase = Phase()
        with ExitStack() as stack:
            wrap_control_plane(stack, rec)
            ledger.closed_loop(budget, lambda i: self._deploy(phase, rec, i))
        return phase

    def work_per_s(self, phase: Phase) -> float:
        return self.rules / ledger.best_cycle_s(phase)

    def workload_metrics(self, phase: Phase) -> dict[str, float]:
        return {"modeled_op_s": phase.facts.get("modeled_op_s", 0.0)}

    def layer_metrics(
        self, untraced: Phase, traced: Phase, rec: Recorder
    ) -> dict[str, float]:
        layers = {
            "controller.first_deploy_s": self.first_deploy_s,
            "controller.rules_per_s": self.work_per_s(untraced),
            **traced.facts,
        }
        layers.pop("modeled_op_s", None)  # end-to-end, not a layer
        return layers
