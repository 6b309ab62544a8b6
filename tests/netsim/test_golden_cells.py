"""Golden simulated statistics: the packet engine's output, pinned.

Two fixed cells whose every simulated number must repeat bit for bit
across any rewrite of the packet path (engine, ports, nodes, transports,
packet and header types):

* a Table IV cell — fat-tree k=4, 16 ranks, IMB all-to-all — through
  all three arms (full testbed, flit-level simulator, SDT): events
  processed and application completion time per arm;
* Fig. 12's chain-8 incast — seven senders onto ``h3`` — as RoCE
  (PFC + ECN) and as TCP (lossy), each on the logical and on the SDT
  network: events processed, drops and per-sender goodput.

The message length and incast window are small so the file stays fast;
the performance ledger runs the full-size cells. Floats are compared
with ``==``: a change in the last bit is a change in behaviour. The
stress job also runs this file under several ``PYTHONHASHSEED`` values,
since the SDT pipeline memoizes forwarding decisions on hashed headers.
"""

import pytest

from repro.core import SDTController, build_cluster_for
from repro.hardware import H3C_S6861
from repro.netsim import NetworkConfig, build_logical_network, build_sdt_network
from repro.routing import routes_for
from repro.testbed import Experiment, run_incast, select_nodes
from repro.topology import chain, fat_tree
from repro.workloads import workload

#: arm -> (events, act)
ALLTOALL_FT4 = {
    "full": (18144, 0.0006604831999999993),
    "sim": (86752, 0.0006604831999999993),
    "sdt": (18144, 0.0006603127999999968),
}

INCAST_TARGET = "h3"
INCAST_DURATION = 2e-3

#: (mode, arm) -> (events, drops, per-sender goodput in B/s)
INCAST_CHAIN8 = {
    ("roce", "full"): (12599, 0, {
        "h0": 215040000.0, "h1": 169984000.0, "h2": 208896000.0,
        "h4": 245760000.0, "h5": 184320000.0, "h6": 98304000.0,
        "h7": 100352000.0,
    }),
    ("roce", "sdt"): (12919, 0, {
        "node0": 202752000.0, "node1": 182272000.0, "node2": 210944000.0,
        "node4": 200704000.0, "node5": 202752000.0, "node6": 108544000.0,
        "node7": 114688000.0,
    }),
    ("tcp", "full"): (57286, 540, {
        "h0": 329960000.0, "h1": 343100000.0, "h2": 262070000.0,
        "h4": 91980000.0, "h5": 62780000.0, "h6": 48180000.0,
        "h7": 45260000.0,
    }),
    ("tcp", "sdt"): (57176, 862, {
        "node0": 264990000.0, "node1": 277400000.0, "node2": 392740000.0,
        "node4": 91980000.0, "node5": 62780000.0, "node6": 48180000.0,
        "node7": 45260000.0,
    }),
}


@pytest.fixture(scope="module")
def alltoall_ft4():
    topology = fat_tree(4)
    hosts = select_nodes(topology, 16)
    programs = workload(
        "imb-alltoall", msglen=16384, repetitions=1
    ).build(len(hosts))
    exp = Experiment(topology, programs, hosts)
    return {
        "full": exp.run_full_testbed(),
        "sim": exp.run_simulator(),
        "sdt": exp.run_sdt(),
    }


@pytest.mark.parametrize("arm", sorted(ALLTOALL_FT4))
def test_alltoall_ft4_cell(alltoall_ft4, arm):
    result = alltoall_ft4[arm]
    assert (result.events, result.act) == ALLTOALL_FT4[arm]


def _incast_network(topology, routes, config, arm):
    """The network to run on, and a logical-to-physical host map."""
    if arm == "full":
        return build_logical_network(topology, routes, config), {}
    cluster = build_cluster_for([topology], 2, H3C_S6861)
    deployment = SDTController(cluster).deploy(topology, routes=routes)
    network = build_sdt_network(cluster, deployment, config)
    return network, deployment.projection.host_map


@pytest.mark.parametrize("mode, arm", sorted(INCAST_CHAIN8))
def test_incast_chain8(mode, arm):
    topology = chain(8)
    routes = routes_for(topology)
    pfc = mode == "roce"
    config = NetworkConfig(pfc_enabled=pfc, ecn_enabled=pfc)
    network, host_map = _incast_network(topology, routes, config, arm)
    senders = [
        host_map.get(h, h) for h in topology.hosts if h != INCAST_TARGET
    ]
    target = host_map.get(INCAST_TARGET, INCAST_TARGET)
    result = run_incast(
        network, senders, target, duration=INCAST_DURATION, mode=mode
    )
    observed = (network.sim.events_processed, result.drops, result.goodput)
    assert observed == INCAST_CHAIN8[(mode, arm)]
