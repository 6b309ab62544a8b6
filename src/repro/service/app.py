"""The long-running control-plane service (DESIGN.md §8).

:class:`ControlPlaneService` is the one entry point for tenant work on a
:class:`~repro.tenancy.service.TestbedService`: scenario replays
(:func:`~repro.tenancy.scenario.serve_scenario`), ``engineer --watch``
and the churn suites call its in-process API, and as a fleet-facing
daemon an asyncio event loop accepts HTTP/JSON requests for the
tenant session lifecycle (``create`` / ``deploy`` / ``reconfigure`` /
``status`` / ``evict``), the testbed's own
:class:`~repro.tenancy.scheduler.Scheduler` executes the control-plane
operations — admitted through the bounded, awaitable
:class:`~repro.service.asyncsched.AsyncScheduler` front — and the PR 7
durability machinery makes the whole thing restartable:

* every transaction commit is journaled (process-wide journal owned by
  the service while it runs);
* session lifecycle changes (open / evict / close) append one journal
  ``session`` record before the response is sent — a client that has
  been told its lease exists will find it after a crash, and a crash
  before the record simply never confirmed the grant (no lease or
  cookie block is ever lost-after-ack or double-granted);
* mutating operations snapshot opportunistically on the usual
  every-N-commits cadence, bounding journal replay; session records
  do not count toward it.

Overload is explicit: the scheduler's bounded queue turns excess
submissions into HTTP 429 with a ``Retry-After`` derived from the
observed queue drain rate, and rejected submissions touch no state.

SLO instruments (``repro.telemetry``): ``sdt_service_admission_seconds``
(session admission latency), ``sdt_service_commit_seconds`` (operation
execution latency, labeled by kind), ``sdt_service_queue_depth``, and
``sdt_service_requests_total`` by route/status.
"""

from __future__ import annotations

import asyncio
import time
from pathlib import Path
from typing import Any
from urllib.parse import parse_qs

from repro.hardware.cluster import PhysicalCluster
from repro.recovery import SnapshotManager, install_journal, uninstall_journal
from repro.recovery.servicestate import recover_service, service_extra
from repro.service.asyncsched import AsyncScheduler, BackpressureError
from repro.service.http import HttpRequest, HttpResponse, HttpServer
from repro.telemetry import metrics
from repro.tenancy.scheduler import SESSION_END_KINDS
from repro.tenancy.service import TestbedService
from repro.tenancy.session import TenantQuota
from repro.util.errors import (
    AdmissionError,
    ConfigurationError,
    ReproError,
)

API_VERSION = "v1"


def _config_from(payload: dict, field: str = "topology"):
    from repro.core.controller.config import TopologyConfig

    spec = payload.get(field)
    if not isinstance(spec, dict):
        raise ConfigurationError(f"request needs a {field!r} object")
    return TopologyConfig.from_dict(spec)


class ControlPlaneService:
    """Asyncio front-end over one shared pool.

    Usable with or without the HTTP listener: the async methods
    (:meth:`open_session`, :meth:`submit`, :meth:`end_session`) are the
    in-process API the churn bench and the property/chaos suites
    drive; :meth:`start`/:meth:`stop` additionally bind the HTTP
    server when ``host``/``port`` are given.
    """

    def __init__(
        self,
        cluster: PhysicalCluster,
        *,
        max_pending: int = 64,
        state_dir: str | Path | None = None,
        snapshot_every: int = 8,
        host: str | None = None,
        port: int = 0,
        placement: str = "occupancy",
        workers: int | None = None,
    ) -> None:
        # workers is accepted and ignored only for the frozen perf
        # ledger (benchmarks/perf/wl_churn.py); the next [benchmark]
        # change drops it
        self.testbed = TestbedService(cluster, placement=placement)
        self.scheduler = AsyncScheduler(
            self.testbed.scheduler, max_pending=max_pending
        )
        self.host = host
        self.port = port
        self._http: HttpServer | None = None
        self._state_dir = Path(state_dir) if state_dir else None
        self._snapshot_every = snapshot_every
        self._manager: SnapshotManager | None = None
        self._journal = None
        self._started_at = 0.0
        self._stopping: asyncio.Event | None = None
        self.recovered: dict | None = None

    # --- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        self._started_at = time.monotonic()
        self._stopping = asyncio.Event()
        if self._state_dir is not None:
            self._manager = SnapshotManager(
                self._state_dir, every=self._snapshot_every
            )
            self._journal = self._manager.journal()
            result = recover_service(self._state_dir, self.testbed)
            if result.journal_records or result.state.get("sessions"):
                self.recovered = result.summary()
                self.recovered["sessions"] = sorted(
                    self.testbed.sessions
                )
            install_journal(self._journal)
        if self.host is not None:
            self._http = HttpServer(self._handle, self.host, self.port)
            await self._http.start()

    @property
    def bound_port(self) -> int:
        assert self._http is not None, "service has no HTTP listener"
        return self._http.bound_port

    async def stop(self) -> None:
        """Graceful stop: drain, final snapshot, release the journal."""
        if self._http is not None:
            await self._http.stop()
            self._http = None
        await self.scheduler.shutdown()
        if self._manager is not None:
            self._snapshot(force=True)
            self._manager = None
            if self._journal is not None:
                uninstall_journal()
                self._journal = None

    async def serve_forever(self) -> None:
        assert self._stopping is not None, "service not started"
        await self._stopping.wait()

    def request_shutdown(self) -> None:
        if self._stopping is not None:
            self._stopping.set()

    # --- durability ------------------------------------------------------
    def _snapshot(self, *, force: bool = False) -> None:
        """Write (or maybe-write) a snapshot under the service mutex so
        in-flight operation bodies cannot interleave with serialization."""
        if self._manager is None or self._journal is None:
            return
        with self.testbed._lock:
            sessions = list(self.testbed.sessions.values())
            extra = service_extra(self.testbed)
            if force:
                self._manager.write(
                    self.testbed.controller, self._journal,
                    sessions=sessions, extra=extra,
                )
            else:
                self._manager.maybe_write(
                    self.testbed.controller, self._journal,
                    sessions=sessions, extra=extra,
                )

    # --- in-process API --------------------------------------------------
    async def open_session(self, tenant_id: str, quota: TenantQuota) -> dict:
        """Admit a tenant; durable (journaled) before returning."""
        t0 = time.perf_counter()

        def admit() -> dict:
            return self.testbed.open_session(tenant_id, quota).snapshot()

        try:
            snap = await asyncio.to_thread(admit)
        finally:
            metrics.registry().histogram(
                "sdt_service_admission_seconds"
            ).observe(time.perf_counter() - t0, op="open")
        return snap

    async def submit(self, kind: str, tenant_id: str, **kwargs) -> Any:
        """Queue one mutating operation and await its result.

        Raises :class:`BackpressureError` when the bounded queue is
        full (zero mutation), or whatever the operation body raises.
        """
        op = self.testbed.make_operation(kind, tenant_id, **kwargs)
        inner = op.fn

        def fn():
            try:
                result = inner()
            except Exception:
                # a failed operation rolled back to a consistent state,
                # so keeping the snapshot cadence is safe
                self._snapshot()
                raise
            # BaseException (process death) skips the snapshot: the
            # live state may be a hybrid only journal replay can judge
            self._snapshot()  # cadence-gated; cheap when not due
            return result

        op.fn = fn
        return await self.scheduler.submit(op)

    async def end_session(self, tenant_id: str, *, mode: str = "evict") -> dict:
        """Evict (or close) through the scheduler — the teardown
        serializes after everything the tenant already queued, and the
        lease release is journaled before the operation returns."""
        if mode not in SESSION_END_KINDS:
            raise ConfigurationError(f"unknown end-session mode {mode!r}")
        await self.submit(mode, tenant_id)
        return {"tenant": tenant_id, "state": self.testbed.sessions[tenant_id].state}

    def status(self) -> dict:
        payload = self.testbed.status()
        payload["service"] = {
            "uptime_s": time.monotonic() - self._started_at,
            "queue_depth": self.scheduler.depth,
            "max_pending": self.scheduler.max_pending,
            "recovered": self.recovered,
        }
        return payload

    # --- HTTP layer ------------------------------------------------------
    async def _handle(self, request: HttpRequest) -> HttpResponse:
        t0 = time.perf_counter()
        try:
            response = await self._route(request)
        except BackpressureError as exc:
            response = HttpResponse.json(
                {
                    "error": str(exc),
                    "retry_after_s": exc.retry_after,
                    "queue_depth": exc.queue_depth,
                },
                status=429,
                **{"Retry-After": f"{exc.retry_after:.3f}"},
            )
        except AdmissionError as exc:
            response = HttpResponse.json(
                {"error": str(exc), "problems": exc.problems}, status=409
            )
        except ConfigurationError as exc:
            response = HttpResponse.json({"error": str(exc)}, status=400)
        except ReproError as exc:
            response = HttpResponse.json({"error": str(exc)}, status=400)
        metrics.registry().counter("sdt_service_requests_total").inc(
            1,
            method=request.method,
            path=self._route_label(request.path),
            status=response.status,
        )
        metrics.registry().histogram(
            "sdt_service_request_seconds"
        ).observe(time.perf_counter() - t0, method=request.method)
        return response

    @staticmethod
    def _route_label(path: str) -> str:
        """Collapse tenant ids out of paths so metric labels stay
        low-cardinality: /v1/sessions/alice/deploy -> /v1/sessions/*/deploy."""
        parts = path.strip("/").split("/")
        if len(parts) >= 3 and parts[1] == "sessions":
            parts[2] = "*"
        return "/" + "/".join(parts)

    async def _route(self, request: HttpRequest) -> HttpResponse:
        parts = [p for p in request.path.strip("/").split("/") if p]
        if not parts or parts[0] != API_VERSION:
            return HttpResponse.json(
                {"error": f"unknown path {request.path!r}"}, status=404
            )
        tail = parts[1:]
        method = request.method

        if tail == ["healthz"] and method == "GET":
            return HttpResponse.json({
                "ok": True,
                "uptime_s": time.monotonic() - self._started_at,
            })
        if tail == ["status"] and method == "GET":
            # status() takes the testbed lock an operation body holds
            return HttpResponse.json(await asyncio.to_thread(self.status))
        if tail == ["metrics"] and method == "GET":
            return HttpResponse.json(metrics.registry().to_dict())
        if tail == ["shutdown"] and method == "POST":
            self.request_shutdown()
            return HttpResponse.json({"ok": True, "stopping": True})

        if tail == ["sessions"] and method == "POST":
            payload = request.json()
            tenant = payload.get("tenant")
            if not isinstance(tenant, str) or not tenant:
                raise ConfigurationError("request needs a 'tenant' string")
            snap = await self.open_session(
                tenant, TenantQuota.from_dict(payload.get("quota"))
            )
            return HttpResponse.json({"session": snap}, status=201)

        if len(tail) in (2, 3) and tail[0] == "sessions":
            tenant = tail[1]
            action = tail[2] if len(tail) == 3 else None
            if method == "DELETE" and action is None:
                modes = parse_qs(request.query, keep_blank_values=True)
                # a repeated or empty mode joins into one end_session refuses
                mode = ",".join(modes.get("mode", ["evict"]))
                return HttpResponse.json(
                    await self.end_session(tenant, mode=mode)
                )
            if method == "GET" and action is None:
                session = self.testbed.sessions.get(tenant)
                if session is None:
                    return HttpResponse.json(
                        {"error": f"unknown tenant {tenant!r}"}, status=404
                    )
                return HttpResponse.json({"session": session.snapshot()})
            if method == "POST" and action == "deploy":
                payload = request.json()
                deployment = await self.submit(
                    "deploy", tenant, config=_config_from(payload)
                )
                return HttpResponse.json({
                    "deployment": deployment.name,
                    "rules_installed": deployment.rules.count(),
                    "install_time_s": deployment.deployment_time,
                })
            if method == "POST" and action == "reconfigure":
                payload = request.json()
                name = payload.get("name")
                if not isinstance(name, str) or not name:
                    raise ConfigurationError(
                        "request needs a 'name' string"
                    )
                deployment = await self.submit(
                    "reconfigure", tenant, name=name,
                    config=_config_from(payload),
                )
                return HttpResponse.json({
                    "deployment": deployment.name,
                    "rules_installed": deployment.rules.count(),
                })
            if method == "POST" and action == "undeploy":
                payload = request.json()
                name = payload.get("name")
                if not isinstance(name, str) or not name:
                    raise ConfigurationError(
                        "request needs a 'name' string"
                    )
                elapsed = await self.submit("undeploy", tenant, name=name)
                return HttpResponse.json({"removed": name,
                                          "modeled_time_s": elapsed})
        return HttpResponse.json(
            {"error": f"no route {method} {request.path}"}, status=404
        )


def run_service(
    cluster: PhysicalCluster,
    *,
    host: str,
    port: int,
    max_pending: int = 64,
    state_dir: str | Path | None = None,
    snapshot_every: int = 8,
    ready: Any = None,
) -> None:
    """Blocking entry point for ``repro serve --listen``.

    Runs the service until SIGINT/SIGTERM or ``POST /v1/shutdown``.
    ``ready`` (optional callable) receives the bound port once the
    listener is up — the smoke tests use it; the CLI prints it.
    """

    async def _main() -> None:
        service = ControlPlaneService(
            cluster,
            max_pending=max_pending,
            state_dir=state_dir,
            snapshot_every=snapshot_every,
            host=host,
            port=port,
        )
        await service.start()
        bound = service.bound_port
        print(f"sdt-service listening on {host}:{bound}", flush=True)
        if service.recovered is not None:
            print(
                "recovered state: "
                f"{len(service.recovered.get('sessions', []))} sessions, "
                f"{service.recovered.get('entries', 0)} flow entries",
                flush=True,
            )
        if ready is not None:
            ready(bound)
        loop = asyncio.get_running_loop()
        try:
            import signal

            loop.add_signal_handler(
                signal.SIGINT, service.request_shutdown
            )
            loop.add_signal_handler(
                signal.SIGTERM, service.request_shutdown
            )
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-POSIX loop: Ctrl-C surfaces as KeyboardInterrupt
        try:
            await service.serve_forever()
        finally:
            await service.stop()
            print("sdt-service stopped", flush=True)

    asyncio.run(_main())
