"""Controller <-> switch control channel.

The SDT controller (a Ryu application in the paper) talks OpenFlow to
each switch. We model the channel explicitly because deployment time —
the time from "configuration placed" until "network available"
(Table II's reconfiguration metric, Fig. 13's SDT overhead) — is
dominated by per-FlowMod install latency and barrier round trips.

Latency defaults come from published commodity-switch measurements:
a few hundred microseconds per flow install, ~1 ms RTT. The channel
accumulates *modeled* time; nothing sleeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple

from repro.openflow.match import Match
from repro.openflow.switch import FlowModRun, OpenFlowSwitch, SwitchSnapshot
from repro.util.errors import ChannelError
from repro.util.units import MICROSECONDS, MILLISECONDS

#: modeled cost of one flow install and of one control round trip —
#: the one definition; the routing protocols' push-time model imports it
FLOW_INSTALL_LATENCY = 250 * MICROSECONDS
CONTROL_RTT = 1 * MILLISECONDS


class FlowMod(NamedTuple):
    """An ADD flow-mod (the only kind SDT deployment needs, plus
    cookie-based bulk DELETE below).

    A NamedTuple for the same reason as :class:`Match`: cold deploys
    construct one per rule and delta staging hashes whole rule
    generations, and tuples do both at C speed. The nested-instruction
    hash cost is amortized by :class:`ApplyActions`'s memoized hash on
    the pooled instruction objects.
    """

    table_id: int
    priority: int
    match: Match
    instructions: tuple
    cookie: int = 0


@dataclass(frozen=True)
class FlowDelete:
    """Delete entries matching every non-``None`` field.

    The classic SDT teardown is cookie-only (``FlowDelete(cookie=c)``
    retires one deployment generation; all-``None`` wipes the switch).
    The incremental reconfigurer additionally sets ``table_id`` /
    ``priority`` / ``match`` for an OFPFC_DELETE_STRICT that removes a
    single stale entry while its unchanged neighbors stay installed.
    """

    cookie: int | None = None
    table_id: int | None = None
    priority: int | None = None
    match: Match | None = None

    @property
    def strict(self) -> bool:
        """Does this delete name one entry identity (table, priority,
        match and cookie all given), as the incremental reconfigurer's
        strict deletes do?"""
        return (
            self.table_id is not None
            and self.priority is not None
            and self.match is not None
            and self.cookie is not None
        )


def flow_messages(
    staged: Iterable[FlowMod | FlowDelete | FlowModRun],
) -> Iterator[FlowMod | FlowDelete]:
    """``staged`` message by message: every :class:`FlowModRun` gives
    way to the FlowMods it stands for. This is where a run's FlowMods
    get built, so only consumers that need each message (the journal's
    intent record, capacity simulation across deletes) come here."""
    for msg in staged:
        if isinstance(msg, FlowModRun):
            yield from msg
        else:
            yield msg


@dataclass(frozen=True)
class BarrierRequest:
    """Fence: completes when all prior mods are applied."""


@dataclass(frozen=True)
class PortStatsRequest:
    """Ask for all port counters (Network Monitor polling)."""


@dataclass
class ChannelStats:
    """Per-channel message accounting."""

    flow_mods: int = 0
    flow_deletes: int = 0
    barriers: int = 0
    stats_requests: int = 0
    modeled_time: float = 0.0  # seconds of modeled control-plane latency


class ControlChannel:
    """A modeled OpenFlow session to one switch."""

    def __init__(
        self,
        switch: OpenFlowSwitch,
        *,
        flow_install_latency: float = FLOW_INSTALL_LATENCY,
        rtt: float = CONTROL_RTT,
    ) -> None:
        self.switch = switch
        self.flow_install_latency = flow_install_latency
        self.rtt = rtt
        self.stats = ChannelStats()
        self._fail_countdown: int | None = None

    def fail_after(self, messages: int) -> None:
        """Arrange for the ``messages``-th subsequent :meth:`send` to
        raise :class:`ChannelError` (fault injection for
        crash-consistency experiments; ``1`` fails the very next send).
        The fault is one-shot: after firing, the channel works again —
        modeling a session drop followed by reconnection."""
        if messages < 1:
            raise ValueError(f"fail_after needs >= 1 message, got {messages}")
        self._fail_countdown = messages

    def send(self, msg: FlowMod | FlowDelete | BarrierRequest | PortStatsRequest):
        """Apply one control message; returns the reply payload if any."""
        if self._fail_countdown is not None:
            self._fail_countdown -= 1
            if self._fail_countdown <= 0:
                self._fail_countdown = None
                raise ChannelError(
                    f"control channel to {self.switch.dpid} dropped "
                    f"(injected failure on {type(msg).__name__})"
                )
        if isinstance(msg, FlowMod):
            self.stats.flow_mods += 1
            self.stats.modeled_time += self.flow_install_latency
            return self.switch.add_flow(
                msg.table_id,
                msg.priority,
                msg.match,
                msg.instructions,
                cookie=msg.cookie,
            )
        if isinstance(msg, FlowDelete):
            self.stats.flow_deletes += 1
            self.stats.modeled_time += self.flow_install_latency
            return self.switch.remove_flows(
                cookie=msg.cookie,
                table_id=msg.table_id,
                priority=msg.priority,
                match=msg.match,
            )
        if isinstance(msg, BarrierRequest):
            self.stats.barriers += 1
            self.stats.modeled_time += self.rtt
            return None
        if isinstance(msg, PortStatsRequest):
            self.stats.stats_requests += 1
            self.stats.modeled_time += self.rtt
            return {p: s for p, s in self.switch.port_stats.items()}
        raise TypeError(f"unknown control message {msg!r}")

    def send_batch(self, mods: list[FlowMod] | FlowModRun) -> None:
        """Apply a run of FlowMods as one bulk install.

        Observable behavior is identical to ``for m in mods: send(m)``
        — per-message latency accounting and per-message fault injection
        (an armed :meth:`fail_after` fires on exactly the same message
        it would have fired on, with every earlier mod applied) — but
        the hardware install itself goes through
        :meth:`OpenFlowSwitch.add_flow_batch`, amortizing table
        maintenance across the batch.

        ``mods`` may be a :class:`FlowModRun`: it counts (``len``) as
        the FlowMods it stands for and is handed to the switch whole,
        so on the bulk path none of them is ever built. Which path runs
        is read off the channel's own state, never chosen by the
        caller: only an armed fault needs each message, and iterating
        the run supplies them. The channel emits no trace events — the
        per-message history is the recovery commit journal's, and the
        trace's ``txn.commit`` span records each switch's modeled time.

        One intentional divergence: when the switch rejects a mod during
        up-front batch *validation* (a :class:`SimulationError`, e.g. a
        bad table id), nothing from the batch is applied, whereas the
        sequential loop would have installed the good prefix. That is
        strictly safer — the transaction layer rolls back from its
        snapshot either way — and stats still count exactly the messages
        the switch saw: every applied mod plus the one that failed,
        matching what sequential :meth:`send` would have accumulated at
        the point of a mid-batch capacity failure.
        """
        if self._fail_countdown is not None:
            # an armed fault keeps exact per-message semantics trivially
            for m in mods:
                self.send(m)
            return
        before = self.switch.num_entries
        try:
            self.switch.add_flow_batch(mods)
        except Exception:
            # partial batch: add_flow_batch installed a prefix (possibly
            # empty) before raising. Count the applied mods plus the one
            # that failed — identical to the sequential loop, where each
            # send() bumps stats before add_flow can raise — so
            # RollbackReport's reverted-entry math reconciles with what
            # was actually on the switch.
            applied = self.switch.num_entries - before
            attempted = min(applied + 1, len(mods))
            self.stats.flow_mods += attempted
            self.stats.modeled_time += self.flow_install_latency * attempted
            raise
        self.stats.flow_mods += len(mods)
        self.stats.modeled_time += self.flow_install_latency * len(mods)

    # --- transaction support ------------------------------------------
    def snapshot_rules(self) -> SwitchSnapshot:
        """The switch's current rule state (free: pure bookkeeping)."""
        return self.switch.snapshot()

    def restore_rules(self, snap: SwitchSnapshot) -> float:
        """Roll the switch back to ``snap``; returns the modeled time.

        Modeled as one bulk wipe plus a reinstall of every snapshot
        entry plus a barrier — the OFPFC_DELETE + batched-ADD recovery a
        real controller would push after a failed update. Applied
        directly to the switch (not via :meth:`send`) so an injected
        channel fault cannot interrupt its own recovery."""
        restored = self.switch.restore(snap)
        elapsed = self.flow_install_latency * (1 + restored) + self.rtt
        self.stats.flow_deletes += 1
        self.stats.flow_mods += restored
        self.stats.barriers += 1
        self.stats.modeled_time += elapsed
        return elapsed


class ControlPlane:
    """Channels to every switch in a deployment, with a deployment-time
    roll-up. Installs to different switches proceed in parallel in real
    deployments, so the modeled deployment time is the max over
    channels, not the sum."""

    def __init__(self, switches: dict[str, OpenFlowSwitch], **channel_kwargs) -> None:
        self.channels: dict[str, ControlChannel] = {
            name: ControlChannel(sw, **channel_kwargs)
            for name, sw in switches.items()
        }

    def channel(self, switch_name: str) -> ControlChannel:
        return self.channels[switch_name]

    @property
    def total_flow_mods(self) -> int:
        return sum(c.stats.flow_mods for c in self.channels.values())

    @property
    def deployment_time(self) -> float:
        """Modeled wall time to complete all installs (parallel across
        switches, serial within a channel)."""
        if not self.channels:
            return 0.0
        return max(c.stats.modeled_time for c in self.channels.values())

    def reset_stats(self) -> None:
        for c in self.channels.values():
            c.stats = ChannelStats()

    def for_each(self, fn: Callable[[str, ControlChannel], None]) -> None:
        for name, channel in self.channels.items():
            fn(name, channel)
