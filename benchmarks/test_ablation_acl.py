"""Ablation — §VII-B: multi-table (metadata) vs single-table (ACL)
rule synthesis.

SDT's two-stage pipeline tags packets with their sub-switch in table 0
so table-1 routes scope by one metadata match. ACL-only switches must
inline the scope, inflating entries by ~the sub-switch radix. This
quantifies the pipeline's TCAM savings — the flip side of §VII-C's
"merge entries" remedy.
"""

from repro.core import SDTController, build_cluster_for
from repro.core.rules_acl import synthesize_acl_rules
from repro.hardware import EVAL_256x10G, H3C_S6861
from repro.routing import routes_for
from repro.topology import dragonfly, fat_tree, torus2d
from repro.util import format_table

CASES = [
    ("Fat-Tree k=4", lambda: fat_tree(4), 2, H3C_S6861),
    ("Dragonfly(4,9,2)", lambda: dragonfly(4, 9, 2), 3, EVAL_256x10G),
    ("5x5 Torus", lambda: torus2d(5, 5), 3, EVAL_256x10G),
]


def run_all():
    rows = []
    for label, build, nsw, spec in CASES:
        topo = build()
        routes = routes_for(topo)
        cluster = build_cluster_for([topo], nsw, spec)
        dep = SDTController(cluster).deploy(topo, routes=routes)
        multi = dep.rules.count()
        acl = sum(
            len(mods)
            for mods in synthesize_acl_rules(dep.projection, routes).values()
        )
        rows.append({
            "label": label,
            "multi_table": multi,
            "acl": acl,
            "inflation": acl / multi,
        })
    return rows


def test_acl_vs_pipeline(once):
    rows = once(run_all)
    print("\n" + format_table(
        ["Topology", "Two-stage pipeline", "Flat ACL table", "Inflation"],
        [[r["label"], r["multi_table"], r["acl"], f"{r['inflation']:.2f}x"]
         for r in rows],
        title="Ablation: rule-count cost of single-table (ACL) switches "
              "(§VII-B)",
    ))
    for r in rows:
        # the pipeline always wins, by roughly the sub-switch radix
        assert r["acl"] > 1.5 * r["multi_table"], r["label"]
