"""Same config + same seed → same projection in every process.

``str`` hashing is randomized per interpreter, so anything that
iterates a set of node names differs from process to process. The
partitioner once did (``Graph.subgraph`` hands out the *set* of kept
nodes when recursing into the smaller side), and with it per-switch
entry counts, capacity pre-checks and modeled commit times followed
``PYTHONHASHSEED``. So did the switch order of a delta commit
(``stage_delta`` looped over a set of switch names), and with it apply
and rollback order. This suite runs the same work in interpreters with
distinct hash seeds and demands one answer.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from tests.proptools import prop_cases

#: what every interpreter computes: one partition per (topology, parts);
#: for the topologies small enough to deploy quickly, the per-switch
#: installed-entry vector of a cold deploy; and the order in which one
#: incremental edit's delta stages its switches (its commit and
#: rollback order)
CHILD = """
import json
from repro.core import SDTController, TopologyConfig, build_cluster_for
from repro.core.rules import split_ruleset_delta
from repro.hardware import EVAL_256x10G
from repro.openflow import ControlTransaction
from repro.partition import partition_topology
from repro.topology import (
    build_zoo_topology, chain, dragonfly, fat_tree, mesh2d, torus2d, zoo_entry,
)
from repro.topology.diff import rebuild, removable_switch_links

zoo = {
    "fat-tree-8": fat_tree(8),
    "torus-6x6": torus2d(6, 6),
    "dragonfly-4-9-2": dragonfly(4, 9, 2),
    "mesh-5x5": mesh2d(5, 5),
    "chain-20": chain(20),
    "zoo-Deltacom": build_zoo_topology(zoo_entry("Deltacom"), hosts_per_switch=1),
}
out = {}
for name, topology in zoo.items():
    for parts in range(2, 7):
        partition = partition_topology(topology, parts)
        out[f"partition/{name}/{parts}"] = sorted(partition.assignment.items())
for name, topology, switches in (
    ("fat-tree-4", fat_tree(4), 2),
    ("torus-6x6", zoo["torus-6x6"], 4),
    ("dragonfly-4-9-2", zoo["dragonfly-4-9-2"], 3),
    ("mesh-5x5", zoo["mesh-5x5"], 5),
    ("chain-20", zoo["chain-20"], 6),
    ("zoo-Deltacom", zoo["zoo-Deltacom"], 4),
):
    cluster = build_cluster_for([topology], switches, EVAL_256x10G)
    SDTController(cluster).deploy(TopologyConfig.from_topology(topology))
    out[f"entries/{name}/{switches}"] = [
        cluster.switches[n].num_entries for n in cluster.switch_names
    ]
base = zoo["fat-tree-8"]
cluster = build_cluster_for([base], 4, EVAL_256x10G)
controller = SDTController(cluster)
deployment = controller.deploy(TopologyConfig.from_topology(base))
old_rules = deployment.rules
edited = rebuild(base, drop_links={removable_switch_links(base)[0]})
controller.reconfigure(TopologyConfig.from_topology(edited))
delta = split_ruleset_delta(old_rules, deployment.rules)
assert delta.shared_rules > 0 and len(delta.new_mods) > 1  # incremental
txn = ControlTransaction(cluster.control, label="edit")
txn.stage_delta(delta.old_mods, delta.new_mods)
out["edit/fat-tree-8/4"] = list(txn.touched_switches)
print(json.dumps(out, sort_keys=True))
"""


def _run(hash_seeds: list[str]) -> dict[str, dict]:
    src = str(Path(repro.__file__).resolve().parent.parent)
    procs = {
        seed: subprocess.Popen(
            [sys.executable, "-c", CHILD],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
            stdout=subprocess.PIPE,
            text=True,
        )
        for seed in hash_seeds
    }
    results = {}
    for seed, proc in procs.items():
        stdout, _ = proc.communicate(timeout=300)
        assert proc.returncode == 0, f"PYTHONHASHSEED={seed} child failed"
        results[seed] = json.loads(stdout)
    return results


def test_partition_and_installed_entries_ignore_the_hash_seed():
    seeds = [str(s) for s in range(prop_cases(3))] + ["random"]
    results: dict[str, dict] = {}
    for i in range(0, len(seeds), 2):  # two interpreters at a time
        results.update(_run(seeds[i : i + 2]))
    reference = results["0"]
    assert any(k.startswith("entries/") for k in reference)
    assert len(reference["edit/fat-tree-8/4"]) > 1
    for seed, got in results.items():
        differing = sorted(k for k in reference if got[k] != reference[k])
        assert not differing, (
            f"PYTHONHASHSEED={seed} disagrees with PYTHONHASHSEED=0 on "
            f"{differing}"
        )
