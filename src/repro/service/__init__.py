"""The fleet-facing control-plane service (DESIGN.md §8).

Everything needed to run one SDT pool as a long-lived daemon:

* :mod:`repro.service.http` — minimal HTTP/1.1 on ``asyncio`` (no new
  dependencies) plus the raw-socket client the CLI and smoke tests use;
* :mod:`repro.service.asyncsched` — the asyncio front over the
  tenancy scheduler: awaitable results and an explicit bounded-queue
  backpressure policy;
* :mod:`repro.service.app` — :class:`ControlPlaneService`, composing
  the tenancy layer, that front, the HTTP API, and the PR 7
  snapshot+journal durability path into one restartable process.
"""

from __future__ import annotations

from repro.service.asyncsched import AsyncScheduler, BackpressureError
from repro.service.http import (
    HttpError,
    HttpRequest,
    HttpResponse,
    HttpServer,
    http_call,
)

__all__ = [
    "AsyncScheduler",
    "BackpressureError",
    "ControlPlaneService",
    "HttpError",
    "HttpRequest",
    "HttpResponse",
    "HttpServer",
    "http_call",
    "run_service",
]


def __getattr__(name: str):
    # app pulls in the controller stack; keep the light pieces
    # importable without it
    if name in ("ControlPlaneService", "run_service"):
        import importlib

        return getattr(
            importlib.import_module("repro.service.app"), name
        )
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
