"""Minimal HTTP/1.1 over ``asyncio.start_server`` (zero dependencies).

The control-plane service (DESIGN.md §8) speaks plain HTTP/JSON, but
pulling in a web framework would violate the repo's no-new-deps rule
and ``http.server`` is synchronous — so this module hand-rolls the
narrow slice of HTTP/1.1 the API needs:

* request line + headers + ``Content-Length`` bodies (no chunked
  encoding, no keep-alive: one request per connection, like early
  HTTP/1.0 — the client side follows suit);
* JSON helpers on both request and response;
* a synchronous :func:`http_call` client on a raw socket, used by the
  ``repro client`` CLI and the smoke tests (it must not depend on the
  server's own event loop).

Limits are deliberate: header block capped at 64 KiB, body at 16 MiB.
A malformed request produces a 400 response, never an unhandled server
exception.
"""

from __future__ import annotations

import asyncio
import json
import socket
from dataclasses import dataclass, field
from typing import Awaitable, Callable

from repro.util.errors import ReproError

MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 16 * 1024 * 1024

_REASONS = {
    200: "OK",
    201: "Created",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(ReproError):
    """A protocol-level problem the server answers with a 4xx."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class HttpRequest:
    """One parsed request."""

    method: str
    path: str
    headers: dict[str, str]
    body: bytes = b""
    #: ``path`` split at the first ``?`` (the router parses it)
    query: str = ""

    def json(self) -> dict:
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"request body is not JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise HttpError(400, "request body must be a JSON object")
        return payload


@dataclass
class HttpResponse:
    """One response; :meth:`encode` serializes it wire-ready."""

    status: int = 200
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @classmethod
    def json(
        cls, payload: dict, *, status: int = 200, **headers: str
    ) -> "HttpResponse":
        return cls(
            status=status,
            headers={"Content-Type": "application/json", **headers},
            body=(json.dumps(payload, sort_keys=True) + "\n").encode("utf-8"),
        )

    def encode(self) -> bytes:
        reason = _REASONS.get(self.status, "Unknown")
        lines = [f"HTTP/1.1 {self.status} {reason}"]
        headers = dict(self.headers)
        headers.setdefault("Content-Length", str(len(self.body)))
        headers.setdefault("Connection", "close")
        for k, v in headers.items():
            lines.append(f"{k}: {v}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        return head + self.body


Handler = Callable[[HttpRequest], Awaitable[HttpResponse]]


async def read_request(reader: asyncio.StreamReader) -> HttpRequest | None:
    """Parse one request; None when the peer closed before sending."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean disconnect
        raise HttpError(400, "truncated request head") from None
    except asyncio.LimitOverrunError:
        raise HttpError(400, "request head too large") from None
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(400, "request head too large")
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError:  # pragma: no cover - latin-1 decodes all
        raise HttpError(400, "undecodable request head") from None
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line {lines[0]!r}")
    method, target, _version = parts
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header {line!r}")
        headers[name.strip().lower()] = value.strip()
    raw_len = headers.get("content-length", "0")
    try:
        length = int(raw_len)
    except ValueError:
        raise HttpError(400, f"bad Content-Length {raw_len!r}") from None
    if length < 0 or length > MAX_BODY_BYTES:
        raise HttpError(400, f"unacceptable Content-Length {length}")
    try:
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError:
        raise HttpError(400, "truncated request body") from None
    path, _, query = target.partition("?")
    return HttpRequest(
        method=method.upper(), path=path, headers=headers, body=body,
        query=query,
    )


class HttpServer:
    """A one-handler asyncio HTTP server bound to one host:port."""

    def __init__(self, handler: Handler, host: str, port: int) -> None:
        self.handler = handler
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None

    @property
    def bound_port(self) -> int:
        """The actual port (resolves ``port=0`` after :meth:`start`)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port,
            limit=MAX_HEADER_BYTES,
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await read_request(reader)
            except HttpError as exc:
                response = HttpResponse.json(
                    {"error": str(exc)}, status=exc.status
                )
            else:
                if request is None:
                    return
                try:
                    response = await self.handler(request)
                except HttpError as exc:
                    response = HttpResponse.json(
                        {"error": str(exc)}, status=exc.status
                    )
                except Exception as exc:  # the server must not die
                    response = HttpResponse.json(
                        {"error": f"{type(exc).__name__}: {exc}"}, status=500
                    )
            writer.write(response.encode())
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass


def http_call(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: dict | None = None,
    *,
    timeout: float = 30.0,
) -> tuple[int, dict[str, str], dict]:
    """Synchronous one-shot client: ``(status, headers, json_body)``.

    Raw-socket on purpose — the CLI and the smoke tests talk to the
    server from *outside* its event loop, and the wire format above is
    simple enough that a hand-rolled client doubles as a protocol
    check.
    """
    body = b""
    if payload is not None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
    head = (
        f"{method.upper()} {path} HTTP/1.1\r\n"
        f"Host: {host}:{port}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Content-Type: application/json\r\n"
        f"Connection: close\r\n\r\n"
    ).encode("latin-1")
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(head + body)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    head_raw, _, body_raw = raw.partition(b"\r\n\r\n")
    lines = head_raw.decode("latin-1").split("\r\n")
    try:
        status = int(lines[0].split(" ")[1])
    except (IndexError, ValueError):
        raise ReproError(f"malformed response head {lines[0]!r}") from None
    headers = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    parsed: dict = {}
    if body_raw:
        try:
            parsed = json.loads(body_raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            parsed = {"raw": body_raw.decode("utf-8", "replace")}
    return status, headers, parsed
