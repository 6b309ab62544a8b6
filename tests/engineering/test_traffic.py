"""Traffic-matrix extraction: warm-up, windows, wraparound, gravity."""

from __future__ import annotations

import pytest

from repro.core.controller.monitor import NetworkMonitor
from repro.engineering import extract_traffic_matrix
from repro.engineering.traffic import TrafficMatrix
from repro.topology.diff import link_key

from tests.engineering.conftest import RING, Driver

HOT = (("h0", "h3"), ("h1", "h4"))


def test_warmup_ports_hold_engineering(rig):
    controller, dep = rig
    # zero polls: every access port is warming, nothing is measurable
    tm = extract_traffic_matrix(controller.monitor, dep)
    assert tm.warming_ports == RING
    assert not tm.ready and tm.total == 0.0
    # one poll is still warm-up (no interval to average yet)
    controller.monitor.poll(0.0, dep.projection)
    tm = extract_traffic_matrix(controller.monitor, dep)
    assert tm.warming_ports == RING
    assert not tm.ready
    # two idle polls clear warm-up but measure an idle network:
    # 0.0 now means "idle", not "unknown"
    controller.monitor.poll(1.0, dep.projection)
    tm = extract_traffic_matrix(controller.monitor, dep)
    assert tm.warming_ports == 0
    assert not tm.ready


def test_gravity_recovers_the_hot_pair(rig):
    controller, dep = rig
    drv = Driver(controller)
    # a single hot pair is the regime where gravity is exact: all
    # egress sits on s0, all ingress on s3
    drv.run(dep, (("h0", "h3"),))
    tm = extract_traffic_matrix(controller.monitor, dep)
    assert tm.ready and tm.warming_ports == 0
    assert tm.switch_egress.get("s0", 0.0) > 0.0
    hottest = tm.pairs_by_demand()[0]
    assert (hottest[0], hottest[1]) == link_key("s0", "s3")
    assert tm.rate("s0", "s3") > 0.0
    # the hot pair dominates everything else by an order of magnitude
    others = [d for a, b, d in tm.pairs_by_demand()[1:]]
    assert all(d < hottest[2] / 10 for d in others)


def test_gravity_conserves_row_sums(rig):
    controller, dep = rig
    drv = Driver(controller)
    drv.run(dep, HOT)
    tm = extract_traffic_matrix(controller.monitor, dep)
    # the gravity split renormalizes away self-traffic, so each
    # source's demand row sums back to its measured egress exactly
    for src, out in tm.switch_egress.items():
        row = sum(d for (s, _t), d in tm.demand.items() if s == src)
        ingress_elsewhere = sum(
            v for sw, v in tm.switch_ingress.items() if sw != src
        )
        if out > 1e-9 and ingress_elsewhere > 1e-9:
            assert row == pytest.approx(out, rel=1e-9)
    # no self-traffic ever
    assert all(s != t for (s, t) in tm.demand)


def test_window_bounds_the_demand_mean(rig):
    controller, dep = rig
    drv = Driver(controller)
    drv.run(dep, HOT)  # hot interval
    drv.run(dep, ())  # idle interval on top
    # full buffer still remembers the hot interval...
    assert extract_traffic_matrix(controller.monitor, dep).ready
    # ...but a zero window sees only the newest (idle) sample
    tm = extract_traffic_matrix(controller.monitor, dep, window=0.0)
    assert not tm.ready
    assert tm.window == 0.0


def test_ring_buffer_wraparound_forgets_old_demand(rig):
    controller, dep = rig
    shallow = NetworkMonitor(
        controller.cluster.control,
        port_rate=controller.monitor.port_rate,
        history_depth=3,
    )
    drv = Driver(controller)

    def poll_both(deployment):
        shallow.poll(drv.clock, deployment.projection)
        drv.poll(deployment)

    poll_both(dep)
    act = drv.run(dep, HOT)
    shallow.poll(drv.clock, dep.projection)  # hot interval in both
    for i in range(3):  # three idle polls wrap the depth-3 ring
        drv.clock = act + 1.0 + i
        poll_both(dep)
    # the deep monitor still averages in the hot interval
    assert extract_traffic_matrix(controller.monitor, dep).ready
    # the shallow ring buffer evicted it: only idle samples remain
    tm = extract_traffic_matrix(shallow, dep)
    assert tm.warming_ports == 0
    assert not tm.ready


def test_link_load_covers_every_switch_link(rig):
    controller, dep = rig
    drv = Driver(controller)
    drv.run(dep, HOT)
    tm = extract_traffic_matrix(controller.monitor, dep)
    topo = dep.topology
    assert set(tm.link_load) == {
        link_key(*l.endpoints) for l in topo.switch_links
    }
    # traffic flowed, so some ring link shows load, and all are sane
    assert any(v > 0.0 for v in tm.link_load.values())
    assert all(0.0 <= v <= 1.0 for v in tm.link_load.values())


def test_empty_matrix_defaults():
    tm = TrafficMatrix()
    assert not tm.ready
    assert tm.total == 0.0
    assert tm.rate("a", "b") == 0.0
    assert tm.pairs_by_demand() == []
