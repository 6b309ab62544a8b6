"""Trace-replay differential test: the journal is a faithful history.

Every control-plane mutation the emulated switches see goes through
:class:`ControlChannel` (or its rollback path), and each one journals a
``ctrl.*`` event. If those events really are a complete history, then
replaying them against an empty model must reconstruct the live
switches' flow-table state *exactly* — across deploys, topology swaps,
link failures (which install reroute rules transactionally, sometimes
rolling back), and repairs.

20 seeded random operation sequences; each runs against a fresh
controller with its own tracer, dumps the JSONL trace, replays it, and
compares the reconstruction against the live switches entry-for-entry
(as multisets of the same serialized records the journal uses).
"""

from __future__ import annotations

import json

import pytest

from repro.core import SDTController, TopologyConfig, build_cluster_for
from repro.hardware import H3C_S6861
from repro.openflow.channel import _entry_record
from repro.telemetry import Tracer, install_tracer, load_trace, uninstall_tracer
from repro.topology import fat_tree, torus2d
from repro.topology.diff import rebuild, removable_switch_links
from repro.util.errors import ReproError
from tests.proptools import seeded_cases

NUM_SEQUENCES = 20
ROOT_SEED = 20260806

CONFIGS = [
    TopologyConfig(kind="fat-tree", params={"k": 4}),
    TopologyConfig(kind="torus2d", params={"x": 4, "y": 4}),
]

_ENTRY_KEYS = ("table", "priority", "cookie", "match", "instructions")


def _fresh_controller() -> SDTController:
    cluster = build_cluster_for(
        [fat_tree(4), torus2d(4, 4)], 2, H3C_S6861
    )
    return SDTController(cluster)


def _random_ops(controller: SDTController, rng) -> None:
    """Deploy, then a random mix of swaps, edits, failures, repairs."""
    deployment = controller.deploy(CONFIGS[int(rng.integers(len(CONFIGS)))])
    for _ in range(int(rng.integers(3, 7))):
        op = int(rng.integers(4))
        if op == 0:
            deployment, _t = controller.reconfigure(
                CONFIGS[int(rng.integers(len(CONFIGS)))]
            )
        elif op == 3:
            # a 1-link edit: exercises the incremental path's strict
            # FlowDelete delta (falls back to cold when pinned)
            keys = removable_switch_links(deployment.topology)
            if not keys:
                continue
            edited = rebuild(
                deployment.topology,
                drop_links={keys[int(rng.integers(len(keys)))]},
            )
            try:
                deployment, _t = controller.reconfigure(TopologyConfig.from_topology(edited))
            except ReproError:
                pass  # edit refused (capacity): still journaled
        elif op == 1:
            links = deployment.topology.switch_links
            try:
                controller.fail_link(
                    deployment, links[int(rng.integers(len(links)))].index
                )
            except ReproError:
                pass  # refused (disconnects/already failed): still journaled
        else:
            try:
                controller.restore_links(deployment)
            except ReproError:
                pass


def _replay(path) -> dict[str, list[dict]]:
    """Reconstruct per-switch flow-table state from the journal alone."""
    state: dict[str, list[dict]] = {}
    events = [r for r in load_trace(path) if r["type"] == "event"]
    for rec in sorted(events, key=lambda r: r["seq"]):
        attrs = rec["attrs"]
        if rec["name"] == "ctrl.flow_mod":
            state.setdefault(attrs["switch"], []).append(
                {k: attrs[k] for k in _ENTRY_KEYS}
            )
        elif rec["name"] == "ctrl.flow_delete":
            table = state.setdefault(attrs["switch"], [])

            def doomed(e: dict) -> bool:
                # every non-None filter must match (strict deletes set
                # table/priority/match; classic teardown is cookie-only;
                # all-None wipes the switch)
                for field, key in (
                    ("cookie", "cookie"),
                    ("table", "table"),
                    ("priority", "priority"),
                    ("match", "match"),
                ):
                    want = attrs.get(field)
                    if want is not None and e[key] != want:
                        return False
                return True

            kept = [e for e in table if not doomed(e)]
            assert len(table) - len(kept) == attrs["removed"], (
                f"journal said {attrs['removed']} entries removed, "
                f"replay removed {len(table) - len(kept)}"
            )
            state[attrs["switch"]] = kept
        elif rec["name"] == "ctrl.restore":
            state[attrs["switch"]] = [dict(e) for e in attrs["entries"]]
    return state


def _live_state(controller: SDTController) -> dict[str, list[dict]]:
    """The switches' actual state, in the journal's serialization."""
    out = {}
    for name, channel in controller.cluster.control.channels.items():
        snap = channel.snapshot_rules()
        out[name] = [
            _entry_record(tid, entry)
            for tid, entries in enumerate(snap.tables)
            for entry in entries
        ]
    return out


def _multiset(entries: list[dict]) -> list[str]:
    return sorted(json.dumps(e, sort_keys=True) for e in entries)


@pytest.mark.parametrize(
    "case,rng",
    list(seeded_cases(NUM_SEQUENCES, ROOT_SEED, "diff")),
    ids=lambda v: str(v) if isinstance(v, int) else "",
)
def test_trace_replay_matches_live_switch_state(case, rng, tmp_path):
    controller = _fresh_controller()
    tracer = install_tracer(Tracer())
    try:
        _random_ops(controller, rng)
    finally:
        uninstall_tracer()
    path = tmp_path / f"seq{case}.jsonl"
    tracer.dump(path)

    replayed = _replay(path)
    live = _live_state(controller)

    assert set(replayed) <= set(live), (
        f"case {case}: journal names unknown switches "
        f"{set(replayed) - set(live)}"
    )
    for switch, entries in live.items():
        assert _multiset(replayed.get(switch, [])) == _multiset(entries), (
            f"case {case}: replayed state diverges on {switch}"
        )


def test_incremental_edit_journals_strict_deletes_faithfully(tmp_path):
    """A 1-link incremental edit pushes strict deletes; the journal must
    capture them precisely enough that replay reconstructs the exact
    post-edit switch state — and that state must be bit-identical to a
    from-scratch install of the deployment's compiled rules."""
    base = fat_tree(4)
    edited = rebuild(base, drop_links={removable_switch_links(base)[0]})

    controller = _fresh_controller()
    tracer = install_tracer(Tracer())
    try:
        controller.deploy(TopologyConfig.from_topology(base))
        deployment, _t = controller.reconfigure(TopologyConfig.from_topology(edited))
    finally:
        uninstall_tracer()
    path = tmp_path / "incremental.jsonl"
    tracer.dump(path)

    strict = [
        r for r in load_trace(path)
        if r["type"] == "event"
        and r["name"] == "ctrl.flow_delete"
        and r["attrs"].get("match") is not None
    ]
    assert strict, "incremental edit staged no strict deletes"

    live = _live_state(controller)
    replayed = _replay(path)
    for switch, entries in live.items():
        assert _multiset(replayed.get(switch, [])) == _multiset(entries)

    # from-scratch differential: replaying only the *final* rule set as
    # plain installs onto an empty model gives the same multisets
    scratch = {
        switch: [
            _entry_record(mod.table_id, mod)
            for mod in mods
        ]
        for switch, mods in deployment.rules.mods.items()
    }
    for switch, entries in live.items():
        assert _multiset(scratch.get(switch, [])) == _multiset(entries)
