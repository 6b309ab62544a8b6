"""``service_churn``: the durable control-plane service under churn.

An in-process ``ControlPlaneService(workers=2, state_dir=...)`` holds
six resident tenants, each with a chain-12 deployed (about 1.07k live
flow entries). Two closed-loop clients then run seeded sessions:
``open_session`` -> ``submit("deploy", chain-3)`` -> (coin)
``submit("reconfigure", chain-4)`` -> ``end_session``.

This is the only workload where tenancy, the async scheduler and
recovery do the work: admission, isolation verification, the commit
journal, and the snapshot every open/evict forces — whose size grows
with the *resident* state, which a resident-free churn cannot see.
Control-plane compile/install is negligible here. No request crosses a
socket; one loopback ``GET /v1/status`` probe is a per-layer metric.

The coins repeat with a period of ten sessions, five of them heads, in
seeded order: the n-th session of every period is the same input, so
its fastest repeat can be taken, and every seed flips equally many
coins.

The process is held on one CPU while the service is up. Every operation
goes from the event loop to a worker thread and back, and across the two
virtual CPUs of a busy host each hand-off waits until the other CPU is
scheduled: free to use both, the session took 10 % longer and runs of
the same code spread by 14-20 %; on one CPU, by 3-7 %. The interpreter
lock lets one of the threads run at a time on either.

Clients interleave on one event loop and the service hands operation bodies to worker threads without a
request id, so spans of this workload carry no operation id and there
is no per-operation ledger coverage.
"""

from __future__ import annotations

import asyncio
import gc
import os
import random
import shutil
import socket
from contextlib import ExitStack, contextmanager
from time import perf_counter

import ledger
from ledger import BaseWorkload, Budget, Phase
from spans import Recorder
from wl_deploy import wrap_control_plane

from repro.core import TopologyConfig
from repro.hardware import EVAL_256x10G
from repro.recovery.journal import JOURNAL_NAME, CommitJournal
from repro.recovery.servicestate import recover_service
from repro.recovery.snapshot import SnapshotManager
from repro.service.app import ControlPlaneService
from repro.service.asyncsched import AsyncScheduler, BackpressureError
from repro.service.http import http_call
from repro.tenancy import TenantQuota, build_pool_for_tenants
from repro.tenancy.admission import AdmissionController
from repro.tenancy.isolation import IsolationVerifier
from repro.tenancy.service import TestbedService
from repro.util.errors import AdmissionError

CLIENTS = 2
LOOPBACK = "127.0.0.1"


def _chain(switches: int) -> TopologyConfig:
    return TopologyConfig(
        "chain", {"num_switches": switches, "hosts_per_switch": 1}
    )


def _loopback_available() -> bool:
    try:
        with socket.socket() as probe:
            probe.bind((LOOPBACK, 0))
        return True
    except OSError:
        return False


@contextmanager
def _sched_wait_probe(samples: list[float]):
    """Time from ``AsyncScheduler.submit`` to the operation body's first
    instruction on a worker — queueing plus dispatch, no body."""
    original = AsyncScheduler.submit

    def submit(self, op):
        body = op.fn
        submitted = perf_counter()

        def fn():
            samples.append(perf_counter() - submitted)
            return body()

        op.fn = fn
        return original(self, op)

    AsyncScheduler.submit = submit
    try:
        yield
    finally:
        AsyncScheduler.submit = original


class ServiceChurn(BaseWorkload):
    def __init__(self, seed: int, smoke: bool) -> None:
        self.residents, self.resident_size = (2, 4) if smoke else (6, 12)
        self.ops = 8 if smoke else 500  # sessions
        #: sessions after which the coins repeat
        self.cycle_ops = self.min_ops = 4 if smoke else 10
        self.coins = [i % 2 == 0 for i in range(self.cycle_ops)]
        random.Random(seed).shuffle(self.coins)
        self.http_probes = 10 if smoke else 200
        self.state_dir = ledger.OUT_DIR / f"state-{os.getpid()}"
        self.loop: asyncio.AbstractEventLoop | None = None
        self.service: ControlPlaneService | None = None
        self.sessions_started = 0
        self.rss_after_ops: float | None = None
        self.recover_s = 0.0

    # --- set-up / tear-down ----------------------------------------------
    def _build_pool(self):
        planned = [_chain(self.resident_size).build() for _ in range(self.residents)]
        # a make-before-break swap holds chain-3 and chain-4 together
        planned += [_chain(3).build() for _ in range(CLIENTS)]
        planned += [_chain(4).build() for _ in range(CLIENTS)]
        return build_pool_for_tenants(planned, 3, EVAL_256x10G, spare_hosts=60)

    def build(self) -> None:
        self.cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self.cpus)})
        self.loop = asyncio.new_event_loop()
        self.pool = self._build_pool()
        self.service = ControlPlaneService(
            self.pool, workers=2, state_dir=self.state_dir,
            host=LOOPBACK if _loopback_available() else None,
        )
        self.loop.run_until_complete(self._start())
        self.resident_entries = self._live_entries()

    def warm_up(self) -> float:
        warmup = Phase()
        heads = self.coins.index(True)
        self.loop.run_until_complete(self._session(warmup, {}, "c0", heads))
        if warmup.failed:
            raise RuntimeError(f"warm-up session failed: {warmup.problems}")
        return warmup.walls[0]

    async def _start(self) -> None:
        await self.service.start()
        # lease wide enough for the partitioner's least even split
        quota = TenantQuota(host_ports=2 * self.resident_size, tcam_share=2000)
        for i in range(self.residents):
            await self.service.open_session(f"r{i}", quota)
            await self.service.submit(
                "deploy", f"r{i}", config=_chain(self.resident_size)
            )

    def teardown(self) -> None:
        if self.loop is None:
            return
        if self.service is not None:
            self.loop.run_until_complete(self.service.stop())
            self.service = None
        self.loop.run_until_complete(self.loop.shutdown_default_executor())
        self.loop.close()
        self.loop = None
        os.sched_setaffinity(0, self.cpus)
        shutil.rmtree(self.state_dir, ignore_errors=True)

    def _live_entries(self) -> int:
        return sum(sw.num_entries for sw in self.pool.switches.values())

    # --- the operation ------------------------------------------------------
    async def _session(
        self, phase: Phase, samples: dict[str, list], tenant: str, number: int
    ) -> None:
        service = self.service
        quota = TenantQuota(host_ports=8, tcam_share=500)

        async def timed(kind: str, awaitable) -> None:
            t0 = perf_counter()
            await awaitable
            samples.setdefault(kind, []).append(perf_counter() - t0)

        phase.attempted += 1
        t0 = perf_counter()
        try:
            await timed("admit", service.open_session(tenant, quota))
            await timed("commit", service.submit("deploy", tenant, config=_chain(3)))
            if self.coins[number % self.cycle_ops]:
                await timed("commit", service.submit(
                    "reconfigure", tenant, name="chain-3", config=_chain(4)
                ))
            await timed("evict", service.end_session(tenant))
        except (AdmissionError, BackpressureError) as refused:
            phase.fail(f"session of {tenant} refused: {refused}")
            session = service.testbed.sessions.get(tenant)
            if session is not None and session.state == "active":
                await service.end_session(tenant)  # free the slot
            return
        wall = perf_counter() - t0
        phase.walls.append(wall)
        phase.parts.setdefault(number % self.cycle_ops, []).append(wall)
        if number + 1 == self.ops:
            self.rss_after_ops = ledger.peak_rss_mb()

    async def _churn(self, budget: Budget, phase: Phase, samples: dict) -> None:
        start = perf_counter()
        started = 0

        async def client(slot: int) -> None:
            nonlocal started
            while started < budget.max_ops:
                if started >= budget.min_ops:
                    elapsed = perf_counter() - start
                    if elapsed + elapsed / started > budget.seconds:
                        break
                started += 1
                number = self.sessions_started
                self.sessions_started += 1
                # the coin goes with the session number: the same seed
                # flips the same coins however the two clients interleave
                await self._session(phase, samples, f"c{slot}", number)

        await asyncio.gather(*(client(slot) for slot in range(CLIENTS)))

    def run(self, budget: Budget, rec: Recorder) -> Phase:
        phase = Phase()
        samples: dict[str, list] = {"sched_wait": []}
        journal = self.state_dir / JOURNAL_NAME
        journal_bytes = journal.stat().st_size
        # collecting between sessions would stall the other client's
        # timed region, so the collector runs once, before the phase
        gc.collect()
        with ExitStack() as stack:
            wrap_control_plane(stack, rec)
            for owner, key, name in (
                (AdmissionController, "admit_deploy", "tenancy.admit"),
                (AdmissionController, "admit_swap", "tenancy.admit"),
                (IsolationVerifier, "verify", "tenancy.isolation_verify"),
                (SnapshotManager, "write", "recovery.snapshot_write"),
                (CommitJournal, "append_intent", "recovery.journal_append"),
                (CommitJournal, "append_commit", "recovery.journal_append"),
                (CommitJournal, "append_abort", "recovery.journal_append"),
            ):
                stack.enter_context(rec.wrap(owner, key, name))
            if rec.enabled:
                stack.enter_context(_sched_wait_probe(samples["sched_wait"]))
            t0 = perf_counter()
            self.loop.run_until_complete(self._churn(budget, phase, samples))
            wall = perf_counter() - t0
        phase.facts = {
            **samples,
            "sessions_per_s": len(phase.walls) / wall,
            "journal_bytes": journal.stat().st_size - journal_bytes,
            "snapshot_bytes": max(
                (p.stat().st_size for p in self.state_dir.glob("snapshot-*.json")),
                default=0,
            ),
        }
        if rec.enabled and self.service.host is not None:
            phase.facts["http"] = self.loop.run_until_complete(self._http_probe())
        return phase

    async def _http_probe(self) -> list[float]:
        loop = asyncio.get_running_loop()
        port = self.service.bound_port
        samples = []
        for _ in range(self.http_probes):
            t0 = perf_counter()
            status, _, _ = await loop.run_in_executor(
                None, http_call, LOOPBACK, port, "GET", "/v1/status"
            )
            samples.append(perf_counter() - t0)
            if status != 200:
                raise RuntimeError(f"GET /v1/status answered {status}")
        return samples

    # --- checks -------------------------------------------------------------
    def verify(self) -> list[str]:
        """The pool must be back to the residents alone, and a restart
        from the state directory must rebuild it bit for bit."""
        problems = []
        if self._live_entries() != self.resident_entries:
            problems.append(
                f"{self._live_entries()} entries live after the churn, "
                f"residents hold {self.resident_entries}"
            )
        self.loop.run_until_complete(self.service.stop())  # final snapshot
        self.service = None
        restarted = TestbedService(self._build_pool(), max_workers=1)
        try:
            t0 = perf_counter()
            recover_service(self.state_dir, restarted)
            self.recover_s = perf_counter() - t0
        finally:
            restarted.shutdown()
        for name, switch in self.pool.switches.items():
            if (
                restarted.cluster.switches[name].installed_rules()
                != switch.installed_rules()
            ):
                problems.append(f"{name}: recovered flow tables differ")
        return problems

    # --- metrics ------------------------------------------------------------
    def peak_rss_mb(self) -> float:
        """The service keeps about 60 KB per session it has served, so
        memory is read after the fixed session count: a run that gets
        through more sessions in its seconds must not look heavier."""
        return self.rss_after_ops or ledger.peak_rss_mb()

    def work_per_s(self, phase: Phase) -> float:
        # a closed loop keeps CLIENTS sessions in flight, so sessions per
        # second are CLIENTS over the session's time (Little's law); the
        # rate of the fastest block of ten completions moved by 14 %
        # between runs of the same code
        return CLIENTS * self.cycle_ops / ledger.best_cycle_s(phase)

    def workload_metrics(self, phase: Phase) -> dict[str, float]:
        facts = phase.facts
        return {
            "sessions_per_s": facts.get("sessions_per_s", 0.0),
            "admit_p50_s": ledger.median(facts.get("admit", [])),
            "commit_p50_s": ledger.median(facts.get("commit", [])),
            "evict_p50_s": ledger.median(facts.get("evict", [])),
        }

    def layer_metrics(
        self, untraced: Phase, traced: Phase, rec: Recorder
    ) -> dict[str, float]:
        sessions = max(1, len(traced.walls))
        return {
            "tenancy.isolation_verify_calls": (
                rec.calls("tenancy.isolation_verify") / sessions
            ),
            "service.sched_wait_p50_s": ledger.median(traced.facts["sched_wait"]),
            "service.commit_p99_s": ledger.percentile(untraced.facts["commit"], 0.99),
            "service.evict_p99_s": ledger.percentile(untraced.facts["evict"], 0.99),
            "service.http_roundtrip_p50_s": ledger.median(
                traced.facts.get("http", [])
            ),
            "recovery.snapshot_writes": rec.calls("recovery.snapshot_write") / sessions,
            "recovery.snapshot_bytes": traced.facts["snapshot_bytes"],
            "recovery.journal_records": rec.calls("recovery.journal_append") / sessions,
            "recovery.journal_bytes": traced.facts["journal_bytes"] / sessions,
            "recovery.recover_s": self.recover_s,
        }
