"""``eval_alltoall_ft4`` and ``eval_incast_chain8``: the packet engine.

Both spend nearly all their time in ``repro.netsim`` and differ in how
they use it:

* *all-to-all* is a Table IV cell — fat-tree k=4, 16 ranks, IMB
  all-to-all of 128 KiB — run through ``Experiment``'s three arms (full
  testbed, flit-level simulator, SDT). Traffic is balanced, lossless
  and PFC-quiet; the SDT arm adds ``OpenFlowSwitch.forward`` and two
  ``FlowTable.lookup`` calls per hop.
* *incast* is Fig. 12 — chain-8, seven senders onto one host for 20 ms
  of simulated time — once as RoCE (PFC + ECN: pause/resume, CNPs, rate
  timers) and once as TCP (lossy: drops, retransmits, timeouts), each
  on the logical and on the SDT network. A hot-path rewrite that wins
  on all-to-all but costs the paused or dropping path shows here.

Inputs are the paper's fixed cells, so the seed does not enter them and
every simulated statistic must repeat exactly, operation after
operation, traced or not — that is the correctness check.
"""

from __future__ import annotations

from contextlib import ExitStack
from time import perf_counter

import ledger
from ledger import BaseWorkload, Budget, Phase
from spans import Recorder

from repro import telemetry
from repro.core import SDTController, build_cluster_for
from repro.hardware import H3C_S6861
from repro.mpi.engine import MpiJob
from repro.netsim import NetworkConfig, build_logical_network, build_sdt_network
from repro.netsim.engine import Simulator
from repro.netsim.port import OutPort
from repro.openflow.flowtable import FlowTable
from repro.openflow.switch import OpenFlowSwitch
from repro.routing import routes_for
from repro.testbed import Experiment, harness, run_incast, select_nodes
from repro.topology import chain, fat_tree
from repro.workloads import workload

ARMS = ("full", "sim", "sdt")


def wrap_data_plane(stack: ExitStack, rec: Recorder) -> None:
    """Per-packet callables: the OpenFlow pipeline keeps running totals,
    the engine's two busiest entry points are only counted."""
    for owner, key, name, kind in (
        (OpenFlowSwitch, "forward", "openflow.forward", "hot"),
        (FlowTable, "lookup", "openflow.lookup", "hot"),
        (Simulator, "schedule", "netsim.schedule", "count_only"),
        (OutPort, "enqueue", "netsim.enqueue", "count_only"),
    ):
        stack.enter_context(rec.wrap(owner, key, name, **{kind: True}))


def data_plane_layers(rec: Recorder, ops: int, sdt_total: float) -> dict[str, float]:
    """``sdt_total``: traced seconds the SDT arm's packet loop took."""
    forwards = rec.calls("openflow.forward")
    return {
        "openflow.forward_calls": forwards / ops,
        "openflow.lookup_calls": rec.calls("openflow.lookup") / ops,
        "openflow.lookups_per_forward": (
            rec.calls("openflow.lookup") / forwards if forwards else 0.0
        ),
        "openflow.forward_share_sdt": (
            rec.total_s("openflow.forward") / sdt_total if sdt_total else 0.0
        ),
        "netsim.schedule_calls": rec.calls("netsim.schedule") / ops,
        "netsim.enqueue_calls": rec.calls("netsim.enqueue") / ops,
    }


def events_per_s(phase: Phase, reference: dict | None, runs) -> float:
    """Simulated events of ``runs`` per host second of their packet
    loops, each loop at its fastest repeat."""
    reference = reference or {}
    loops = [phase.facts.get(f"loop_s_{run}") for run in runs]
    if not all(loops):
        return 0.0
    events = sum(reference.get(f"events_{run}", 0) for run in runs)
    return events / sum(min(loop) for loop in loops)


def _check_repeats(phase: Phase, reference: dict, observed: dict, op: int) -> bool:
    """Simulated statistics are deterministic: any difference from the
    first operation is a wrong output."""
    if observed != reference:
        changed = sorted(k for k in reference if observed.get(k) != reference[k])
        phase.fail(f"op {op}: simulated statistics changed: {changed}")
        return False
    return True


class EvalAllToAll(BaseWorkload):
    def __init__(self, seed: int, smoke: bool) -> None:
        del seed  # fixed input, see the module docstring
        self.msglen = 4096 if smoke else 131072
        self.ops = 1 if smoke else 6
        self.reference: dict | None = None

    def build(self) -> None:
        topology = fat_tree(4)
        hosts = select_nodes(topology, 16)
        programs = workload(
            "imb-alltoall", msglen=self.msglen, repetitions=1
        ).build(len(hosts))
        self.experiment = Experiment(topology, programs, hosts)

    def warm_up(self) -> float:
        warmup = Phase()
        self._op(warmup, Recorder(enabled=False), 0)
        return warmup.walls[0]

    def _op(self, phase: Phase, rec: Recorder, index: int) -> None:
        exp = self.experiment
        arms = {}
        with ledger.operation(phase, rec, index):
            for arm, run in (
                ("full", exp.run_full_testbed),
                ("sim", exp.run_simulator),
                ("sdt", exp.run_sdt),
            ):
                # MpiJob.run is rebound per arm so its span carries the arm
                with phase.part(arm), rec.wrap(MpiJob, "run", f"mpi.run_{arm}"):
                    arms[arm] = run()
        observed = {
            f"{stat}_{arm}": getattr(result, stat)
            for arm, result in arms.items()
            for stat in ("events", "act")
        }
        if self.reference is None:
            self.reference = observed
        if not _check_repeats(phase, self.reference, observed, index):
            return
        for arm, result in arms.items():
            # the packet loop alone: the part above also builds the network
            phase.facts.setdefault(f"loop_s_{arm}", []).append(result.wall_time)

    def run(self, budget: Budget, rec: Recorder) -> Phase:
        phase = Phase()
        with ExitStack() as stack:
            for key, name in (
                ("build_logical_network", "netsim.build_logical"),
                ("build_sdt_network", "netsim.build_sdt"),
                ("route_usage", "testbed.route_usage"),
                ("build_cluster_for", "hardware.build_cluster"),
            ):
                stack.enter_context(rec.wrap(harness, key, name))
            stack.enter_context(rec.wrap(SDTController, "deploy", "core.deploy"))
            wrap_data_plane(stack, rec)
            ledger.closed_loop(budget, lambda i: self._op(phase, rec, i))
        if rec.enabled:
            # the product's own tracer, on the SDT arm, against the
            # untraced wall of the same arm (set by layer_metrics)
            telemetry.install_tracer()
            try:
                phase.facts["tracer_on_loop_s"] = min(
                    self.experiment.run_sdt().wall_time for _ in range(2)
                )
            finally:
                telemetry.uninstall_tracer()
        return phase

    def work_per_s(self, phase: Phase) -> float:
        return events_per_s(phase, self.reference, ARMS)

    def workload_metrics(self, phase: Phase) -> dict[str, float]:
        ref = self.reference or {}
        return {
            **{
                f"{arm}_events_per_s": events_per_s(phase, ref, [arm])
                for arm in ARMS
            },
            "sdt_act_dev_pct": ledger.rel_dev_pct(
                ref.get("act_sdt", 0.0), ref.get("act_full", 0.0)
            ),
        }

    def layer_metrics(
        self, untraced: Phase, traced: Phase, rec: Recorder
    ) -> dict[str, float]:
        ops = max(1, len(traced.walls))
        ref = self.reference or {}
        layers = data_plane_layers(rec, ops, rec.total_s("mpi.run_sdt"))
        for arm in ARMS:
            rate = events_per_s(untraced, ref, [arm])
            layers[f"netsim.events_{arm}"] = ref.get(f"events_{arm}", 0)
            layers[f"mpi.act_{arm}_s"] = ref.get(f"act_{arm}", 0.0)
            layers[f"netsim.us_per_event_{arm}"] = 1e6 / rate if rate else 0.0
        layers["telemetry.tracer_on_overhead_ratio"] = (
            traced.facts["tracer_on_loop_s"] / min(untraced.facts["loop_s_sdt"])
        )
        return layers


class EvalIncast(BaseWorkload):
    TARGET = "h3"
    PHASES = (("roce", True), ("tcp", False))

    def __init__(self, seed: int, smoke: bool) -> None:
        del seed  # fixed input, see the module docstring
        self.duration = 2e-3 if smoke else 20e-3
        self.ops = 1 if smoke else 6
        self.reference: dict | None = None

    def build(self) -> None:
        self.topology = chain(8)
        self.routes = routes_for(self.topology)
        self.senders = [h for h in self.topology.hosts if h != self.TARGET]

    def warm_up(self) -> float:
        warmup = Phase()
        self._op(warmup, Recorder(enabled=False), 0)
        return warmup.walls[0]

    def _incast(self, rec, run, network, senders, target, mode) -> dict:
        t0 = perf_counter()
        result = rec.timed(
            f"testbed.incast_{run}", run_incast, network, senders, target,
            duration=self.duration, mode=mode,
        )
        return {
            "loop_s": perf_counter() - t0,
            "events": network.sim.events_processed,
            "drops": result.drops,
            "goodput": sum(result.goodput.values()),
            "per_sender": result.goodput,
        }

    def _op(self, phase: Phase, rec: Recorder, index: int) -> None:
        topology, routes = self.topology, self.routes
        runs: dict[str, dict] = {}
        with ledger.operation(phase, rec, index):
            for mode, pfc in self.PHASES:
                config = NetworkConfig(pfc_enabled=pfc, ecn_enabled=pfc)
                with phase.part(f"{mode}_full"):
                    logical = rec.timed(
                        "netsim.build_logical",
                        build_logical_network, topology, routes, config,
                    )
                    runs[f"{mode}_full"] = self._incast(
                        rec, f"{mode}_full", logical, self.senders, self.TARGET, mode
                    )
                with phase.part(f"{mode}_sdt"):
                    cluster = rec.timed(
                        "hardware.build_cluster",
                        build_cluster_for, [topology], 2, H3C_S6861,
                    )
                    deployment = rec.timed(
                        "core.deploy",
                        SDTController(cluster).deploy, topology, routes=routes,
                    )
                    host_map = deployment.projection.host_map
                    projected = rec.timed(
                        "netsim.build_sdt",
                        build_sdt_network, cluster, deployment, config,
                    )
                    runs[f"{mode}_sdt"] = self._incast(
                        rec, f"{mode}_sdt", projected,
                        [host_map[s] for s in self.senders],
                        host_map[self.TARGET], mode,
                    )
        observed = {
            f"{stat}_{run}": facts[stat]
            for run, facts in runs.items()
            for stat in ("events", "drops", "per_sender")
        }
        if self.reference is None:
            self.reference = observed
            self.goodput = {run: facts["goodput"] for run, facts in runs.items()}
        if not _check_repeats(phase, self.reference, observed, index):
            return
        for arm in ("full", "sdt"):
            if runs[f"roce_{arm}"]["drops"]:
                phase.fail(f"op {index}: drops in the lossless phase ({arm} arm)")
                return
        for run, facts in runs.items():
            phase.facts.setdefault(f"loop_s_{run}", []).append(facts["loop_s"])

    def run(self, budget: Budget, rec: Recorder) -> Phase:
        phase = Phase()
        with ExitStack() as stack:
            wrap_data_plane(stack, rec)
            ledger.closed_loop(budget, lambda i: self._op(phase, rec, i))
        return phase

    def _arm(self, arm: str) -> list[str]:
        return [f"{mode}_{arm}" for mode, _ in self.PHASES]

    def work_per_s(self, phase: Phase) -> float:
        return events_per_s(
            phase, self.reference, self._arm("full") + self._arm("sdt")
        )

    def workload_metrics(self, phase: Phase) -> dict[str, float]:
        return {
            "full_events_per_s": events_per_s(phase, self.reference, self._arm("full")),
            "sdt_events_per_s": events_per_s(phase, self.reference, self._arm("sdt")),
            "sdt_goodput_dev_pct": ledger.rel_dev_pct(
                self.goodput["roce_sdt"], self.goodput["roce_full"]
            ),
        }

    def layer_metrics(
        self, untraced: Phase, traced: Phase, rec: Recorder
    ) -> dict[str, float]:
        ops = max(1, len(traced.walls))
        ref = self.reference or {}
        layers = data_plane_layers(
            rec, ops,
            rec.total_s("testbed.incast_roce_sdt")
            + rec.total_s("testbed.incast_tcp_sdt"),
        )
        for arm in ("full", "sdt"):
            rate = events_per_s(untraced, ref, self._arm(arm))
            layers[f"netsim.us_per_event_{arm}"] = 1e6 / rate if rate else 0.0
            layers[f"netsim.events_{arm}"] = sum(
                ref.get(f"events_{mode}_{arm}", 0) for mode, _ in self.PHASES
            )
            layers[f"netsim.drops_{arm}"] = ref.get(f"drops_tcp_{arm}", 0)
            layers[f"netsim.goodput_{arm}_Bps"] = self.goodput[f"roce_{arm}"]
            for mode, _ in self.PHASES:
                layers[f"netsim.{mode}_{arm}_events_per_s"] = events_per_s(
                    untraced, ref, [f"{mode}_{arm}"]
                )
        layers["netsim.tcp_goodput_dev_pct"] = ledger.rel_dev_pct(
            self.goodput["tcp_sdt"], self.goodput["tcp_full"]
        )
        return layers
