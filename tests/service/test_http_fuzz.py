"""Seeded fuzzer for the hand-rolled HTTP request parser.

``read_request`` is fed mutated, truncated and oversized request heads
and bodies through a real ``StreamReader`` (``feed_data`` then
``feed_eof``, which is all the server's connection handler ever sees
of a client). Whatever arrives, the parser must return a request,
return ``None`` (the peer sent nothing), or raise ``HttpError`` — any
other exception escapes the connection handler, and the client gets
an empty reply instead of a 400.

``SDT_PROP_CASES`` scales the case count (the nightly stress job runs
it elevated); a failure names the case index, the mutation and the
input.
"""

from __future__ import annotations

import asyncio
import socket

import pytest

from repro.service.http import (
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    HttpError,
    HttpRequest,
    HttpResponse,
    HttpServer,
    read_request,
)

from tests.proptools import prop_cases, seeded_cases

ROOT_SEED = 20261015

#: bytes the mutators splice in: the parser's own delimiters are the
#: interesting ones, plus a few that are not latin-1 printable
ALPHABET = b"\r\n: ?=&/-0123456789GETPOSHTP.\x00\xff\t"


def _request(method: str, target: str, body: bytes = b"") -> bytes:
    head = (
        f"{method} {target} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Content-Type: application/json\r\n\r\n"
    )
    return head.encode("latin-1") + body


SEEDS = (
    _request("GET", "/v1/status"),
    _request(
        "POST", "/v1/sessions",
        b'{"tenant": "alice", "quota": {"host_ports": 4, "tcam_share": 100}}',
    ),
    _request("DELETE", "/v1/sessions/alice?mode=close"),
)


def _splice(rng, data: bytes) -> bytes:
    at = int(rng.integers(0, len(data) + 1))
    n = int(rng.integers(1, 9))
    junk = bytes(ALPHABET[int(i)] for i in rng.integers(0, len(ALPHABET), n))
    return data[:at] + junk + data[at:]


def _flip(rng, data: bytes) -> bytes:
    out = bytearray(data)
    for _ in range(int(rng.integers(1, 5))):
        out[int(rng.integers(0, len(out)))] = int(rng.integers(0, 256))
    return bytes(out)


def _truncate(rng, data: bytes) -> bytes:
    return data[: int(rng.integers(0, len(data) + 1))]


def _content_length(rng, data: bytes) -> bytes:
    head, _, body = data.partition(b"\r\n\r\n")
    declared = [
        str(len(body) + int(rng.integers(1, 64))),  # more than is sent
        str(MAX_BODY_BYTES),  # acceptable, and never sent
        str(MAX_BODY_BYTES + 1),
        str(-int(rng.integers(1, 10))),
        "9" * 5000,  # past int()'s digit limit
        " 1 2 ",
        "0x10",
        "",
    ][int(rng.integers(0, 8))]
    lines = [
        line for line in head.split(b"\r\n")
        if not line.lower().startswith(b"content-length")
    ]
    lines.insert(1, b"Content-Length: " + declared.encode())
    return b"\r\n".join(lines) + b"\r\n\r\n" + body


def _oversize_head(rng, data: bytes) -> bytes:
    size = MAX_HEADER_BYTES + int(rng.integers(-64, 64))
    line, _, rest = data.partition(b"\r\n")
    return line + b"\r\nX-Pad: " + b"a" * size + b"\r\n" + rest


def _drop_terminator(rng, data: bytes) -> bytes:
    return data.replace(b"\r\n\r\n", b"\r\n", 1)


MUTATIONS = (
    _splice, _flip, _truncate, _content_length, _oversize_head,
    _drop_terminator,
)


async def _parse(data: bytes) -> HttpRequest | None:
    reader = asyncio.StreamReader(limit=MAX_HEADER_BYTES)  # as the server
    reader.feed_data(data)
    reader.feed_eof()
    return await read_request(reader)


def test_parser_returns_a_request_none_or_http_error():
    async def main():
        for case, rng in seeded_cases(prop_cases(200), ROOT_SEED, "http"):
            mutate = MUTATIONS[case % len(MUTATIONS)]
            data = SEEDS[int(rng.integers(0, len(SEEDS)))]
            for _ in range(int(rng.integers(1, 3))):
                data = mutate(rng, data)
            try:
                request = await _parse(data)
            except HttpError as exc:
                assert exc.status == 400, f"case {case}: {exc}"
                continue
            except Exception as exc:
                raise AssertionError(
                    f"case {case} ({mutate.__name__}): {exc!r} escaped "
                    f"read_request for {data[:200]!r}"
                ) from exc
            if request is not None:
                declared = int(request.headers.get("content-length", "0"))
                assert len(request.body) == declared, f"case {case}"

    asyncio.run(main())


def test_seeds_parse():
    for seed in SEEDS:
        assert isinstance(asyncio.run(_parse(seed)), HttpRequest)


@pytest.mark.parametrize("sent", [0, 3, 9])
def test_truncated_body_is_a_400(sent):
    data = _request("POST", "/v1/sessions", b"0123456789")
    cut = len(data) - 10 + sent
    with pytest.raises(HttpError, match="truncated request body") as err:
        asyncio.run(_parse(data[:cut]))
    assert err.value.status == 400


def test_server_answers_a_truncated_body_with_400():
    """The connection handler answers instead of dying mid-parse."""
    async def handler(request: HttpRequest) -> HttpResponse:
        return HttpResponse.json({"ok": True})

    def send(port: int) -> bytes:
        data = _request("POST", "/v1/sessions", b"0123456789")[:-7]
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
            chunks = []
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        return b"".join(chunks)

    async def main() -> bytes:
        server = HttpServer(handler, "127.0.0.1", 0)
        await server.start()
        try:
            return await asyncio.get_running_loop().run_in_executor(
                None, send, server.bound_port
            )
        finally:
            await server.stop()

    reply = asyncio.run(main())
    assert reply.startswith(b"HTTP/1.1 400 "), reply
    assert b"truncated request body" in reply
