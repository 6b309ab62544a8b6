"""A tracer only observes: installing one changes no modeled result.

The trace keeps spans and one per-switch time record per commit; the
per-message history is the commit journal's. So a traced run takes the
same install path as an untraced one and reports the same numbers,
compared with ``==`` — float rounding included.
"""

from __future__ import annotations

from repro import bench
from repro.core import SDTController, TopologyConfig, build_cluster_for
from repro.hardware import EVAL_256x10G
from repro.telemetry import Tracer, install_tracer, uninstall_tracer
from repro.topology import fat_tree


def _traced(fn):
    tracer = install_tracer(Tracer())
    try:
        return fn(), tracer
    finally:
        uninstall_tracer()


def test_traced_reconfig_scenario_matches_untraced():
    scenario = bench.SCENARIOS[0]
    gated = [
        field
        for field, rule in bench.SUITES["reconfig"].case_fields.items()
        if rule == bench.EQ
    ]
    untraced = bench.run_scenario(scenario)
    traced, _tracer = _traced(lambda: bench.run_scenario(scenario))
    assert {f: traced[f] for f in gated} == {f: untraced[f] for f in gated}


def _deploy_fat_tree_k8() -> float:
    topo = fat_tree(8)
    controller = SDTController(build_cluster_for([topo], 4, EVAL_256x10G))
    controller.deploy(TopologyConfig.from_topology(topo))
    return controller.cluster.control.deployment_time


def test_traced_deploy_time_matches_untraced():
    untraced = _deploy_fat_tree_k8()
    traced, tracer = _traced(_deploy_fat_tree_k8)
    assert traced == untraced
    assert not [r for r in tracer.records if r["name"].startswith("ctrl.")]
