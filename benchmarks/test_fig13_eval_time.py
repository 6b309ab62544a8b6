"""Fig. 13 — evaluation time vs node count: full testbed, simulator,
SDT (deployment included).

IMB Alltoall on Dragonfly(4,9,2) with 1..32 randomly selected nodes.
The paper's shape: simulator time grows steeply with node count and
dwarfs everything; SDT sits just above the full testbed, its gap at
small n explained by the topology deployment time; SDT is faster than
the simulator from n = 4 on. At n = 2 the two are within a few tenths
of a millisecond (3.8 ms of modeled deploy + ACT against 3.3-5.0 ms of
simulator wall clock on the reference host), so which side of the
crossover that row lands on depends on the host and on how fast the
comparator engine is: it is reported, not asserted.
"""

from repro.testbed import Experiment, select_nodes
from repro.topology import dragonfly
from repro.util import format_table
from repro.workloads import workload

NODE_COUNTS = [1, 2, 4, 8, 16, 32]
MSGLEN = 16384
REPS = 8  # IMB runs many repetitions; 8 keeps the bench fast


def run_sweep():
    results = {}
    for n in NODE_COUNTS:
        topo = dragonfly(4, 9, 2)
        hosts = select_nodes(topo, n)
        w = workload("imb-alltoall", msglen=MSGLEN, repetitions=REPS)
        exp = Experiment(topo, w.build(len(hosts)), hosts)
        full = exp.run_full_testbed()
        sim = exp.run_simulator()
        sdt = exp.run_sdt()
        results[n] = (full, sim, sdt)
    return results


def test_fig13(once):
    results = once(run_sweep)
    rows = []
    for n in NODE_COUNTS:
        full, sim, sdt = results[n]
        rows.append([
            n,
            f"{full.eval_time * 1e3:.3f} ms",
            f"{sim.eval_time * 1e3:.1f} ms (wall)",
            f"{sdt.eval_time * 1e3:.1f} ms "
            f"(= {sdt.deploy_time * 1e3:.0f} deploy + {sdt.act * 1e3:.2f} ACT)",
        ])
    print("\n" + format_table(
        ["Nodes", "Full testbed", "Simulator", "SDT"],
        rows,
        title="Fig. 13: evaluation time, IMB Alltoall on Dragonfly(4,9,2)",
    ))

    for n in NODE_COUNTS:
        full, sim, sdt = results[n]
        # SDT > full testbed (projection + deployment) but beats the
        # simulator (paper: "still faster than the simulator" even when
        # deployment dominates) from n = 4; n = 2 sits on the crossover
        # (see the module docstring)
        assert sdt.eval_time >= full.eval_time
        if n >= 4:
            assert sdt.eval_time < sim.eval_time, n

    # simulator cost grows steeply with node count (traffic ~ n^2)
    assert results[32][1].eval_time > 20 * results[2][1].eval_time
    # at short ACTs deployment dominates SDT's evaluation time (the
    # paper: "the topology deployment time may result in overhead")
    _f2, _s2, sdt2 = results[2]
    assert sdt2.deploy_time > sdt2.act
    # ...yet SDT's advantage over the simulator *grows* with experiment
    # size (Fig. 13's diverging curves)
    gap_small = results[2][1].eval_time / results[2][2].eval_time
    gap_big = results[32][1].eval_time / results[32][2].eval_time
    assert gap_big > 3 * gap_small
