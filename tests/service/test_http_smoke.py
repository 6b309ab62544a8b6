"""End-to-end smoke: a real ``repro serve --listen`` subprocess.

The CI smoke job's contract, runnable locally: start the service as a
child process, drive a burst of HTTP requests through the public API
(health, admission, deploy, status, metrics), shut it down over HTTP,
start a *new* process on the same state directory, and prove the
tenant state survived the restart. Everything goes over the wire — no
in-process shortcuts.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

from repro.service.http import http_call

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _spawn(state_dir) -> tuple[subprocess.Popen, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--listen", "127.0.0.1:0",
            "--state-dir", str(state_dir),
            "--switches", "2",
            "--hosts-per-switch", "6",
            "--snapshot-every", "1",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + 30
    while True:
        line = proc.stdout.readline()
        if "listening on" in line:
            port = int(line.rsplit(":", 1)[1])
            return proc, port
        if not line and proc.poll() is not None:
            raise AssertionError(
                f"service died before binding (rc={proc.returncode})"
            )
        if time.monotonic() > deadline:
            proc.kill()
            raise AssertionError("service never printed its banner")


def _call(port, method, path, payload=None):
    return http_call("127.0.0.1", port, method, path, payload)


def _shutdown(proc, port) -> None:
    status, _, _ = _call(port, "POST", "/v1/shutdown")
    assert status == 200
    assert proc.wait(timeout=30) == 0


CHAIN = {
    "topology": {
        "kind": "chain",
        "params": {"num_switches": 2, "hosts_per_switch": 1},
    }
}


def test_serve_drive_restart_state_survives(tmp_path):
    state_dir = tmp_path / "state"
    proc, port = _spawn(state_dir)
    try:
        # -- a 10-request session against the first process ----------
        status, _, body = _call(port, "GET", "/v1/healthz")
        assert status == 200 and body["ok"] is True

        status, _, body = _call(port, "POST", "/v1/sessions", {
            "tenant": "alice",
            "quota": {"host_ports": 4, "tcam_share": 256},
        })
        assert status == 201
        cookie_base = body["session"]["cookie_base"]

        status, _, body = _call(
            port, "POST", "/v1/sessions/alice/deploy", CHAIN
        )
        assert status == 200
        rules = body["rules_installed"]
        assert rules > 0

        status, _, body = _call(port, "GET", "/v1/sessions/alice")
        assert status == 200 and body["session"]["state"] == "active"

        status, _, body = _call(port, "GET", "/v1/status")
        assert status == 200
        entries_before = sum(
            sw["flow_entries"] for sw in body["switches"].values()
        )
        assert entries_before >= rules

        status, _, body = _call(port, "GET", "/v1/metrics")
        assert status == 200
        assert any("sdt_service_requests_total" in k for k in body)

        status, _, _ = _call(port, "GET", "/v1/nope")
        assert status == 404

        status, _, _ = _call(port, "POST", "/v1/sessions", {
            "tenant": "bob",
            "quota": {"host_ports": 4, "tcam_share": 256},
        })
        assert status == 201

        _shutdown(proc, port)
    finally:
        if proc.poll() is None:
            proc.kill()

    # -- a second process on the same state directory ----------------
    proc, port = _spawn(state_dir)
    try:
        status, _, body = _call(port, "GET", "/v1/status")
        assert status == 200
        recovered = body["service"]["recovered"]
        assert recovered is not None
        assert sorted(recovered["sessions"]) == ["alice", "bob"]
        # the flow entries came back bit-for-bit in count
        entries_now = sum(
            sw["flow_entries"] for sw in body["switches"].values()
        )
        assert entries_now == entries_before

        status, _, body = _call(port, "GET", "/v1/sessions/alice")
        assert status == 200
        assert body["session"]["state"] == "active"
        assert body["session"]["cookie_base"] == cookie_base

        # the restarted service still takes work: a fresh tenant
        status, _, _ = _call(port, "POST", "/v1/sessions", {
            "tenant": "carol",
            "quota": {"host_ports": 4, "tcam_share": 256},
        })
        assert status == 201
        status, _, _ = _call(
            port, "POST", "/v1/sessions/carol/deploy", CHAIN
        )
        assert status == 200

        # evicting the recovered tenant strips its adopted rules
        status, _, _ = _call(port, "DELETE", "/v1/sessions/alice")
        assert status == 200
        status, _, body = _call(port, "GET", "/v1/status")
        remaining = sum(
            sw["flow_entries"] for sw in body["switches"].values()
        )
        assert remaining < entries_before + rules

        _shutdown(proc, port)
    finally:
        if proc.poll() is None:
            proc.kill()
