"""A failure repair reports what it pushes.

``fail_link`` and ``restore_links`` swap a live deployment's routes
through ``update_routes``: a whole generation swap, the new
generation's rules installed and the old generation's deleted. That is
what ``sdt_reconfig_rules_pushed_total`` counts for a cold edit, so it
counts it here too — once, on the ``update_routes`` mutation, and not
again on the ``fail_link`` / ``restore_links`` mutation around it.
"""

from __future__ import annotations

from repro.core import SDTController, build_cluster_for
from repro.hardware import EVAL_256x10G
from repro.telemetry import metrics, trace
from repro.topology import fat_tree

PUSHED = "sdt_reconfig_rules_pushed_total"


def _pushed() -> float:
    return metrics.registry().counter(PUSHED).value()


def test_fail_and_restore_count_both_generations_once():
    topo = fat_tree(4)
    controller = SDTController(build_cluster_for([topo], 2, EVAL_256x10G))
    deployment = controller.deploy(topo)
    link = topo.link_between("agg0-0", "core0-0").index

    tracer = trace.install_tracer()
    try:
        swapped = []
        for repair in (
            lambda: controller.fail_link(deployment, link),
            lambda: controller.restore_links(deployment),
        ):
            old = deployment.rules.count()
            before = _pushed()
            repair()
            swapped.append(deployment.rules.count() + old)
            assert _pushed() - before == swapped[-1]
    finally:
        trace.uninstall_tracer()

    pushed = {
        name: [s["attrs"].get("rules_pushed") for s in tracer.spans(name)]
        for name in (
            "controller.update_routes",
            "controller.fail_link",
            "controller.restore_links",
        )
    }
    assert pushed == {
        "controller.update_routes": swapped,
        "controller.fail_link": [None],
        "controller.restore_links": [None],
    }
