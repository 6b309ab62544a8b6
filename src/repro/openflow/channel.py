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
from typing import Callable, Iterable

from repro.openflow.switch import (
    FlowDelete,
    FlowMessages,
    FlowMod,
    FlowModRun,
    ModifyRun,
    OpenFlowSwitch,
    SwitchSnapshot,
)
from repro.openflow.switch import flow_messages as flow_messages
from repro.util.errors import ChannelError
from repro.util.units import MICROSECONDS, MILLISECONDS

#: modeled cost of one flow install and of one control round trip —
#: the one definition; the routing protocols' push-time model imports it
FLOW_INSTALL_LATENCY = 250 * MICROSECONDS
CONTROL_RTT = 1 * MILLISECONDS


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

    def send_batch(
        self, messages: Iterable[FlowMod] | FlowModRun | FlowMessages
    ) -> None:
        """Apply a batch of messages in one switch pass.

        ``messages`` is a list of FlowMods, one :class:`FlowModRun`, or
        a switch's whole staged list as :func:`flow_messages` reads it
        (what ``ControlTransaction.commit`` hands over: FlowMods,
        FlowDeletes, FlowModRuns and ModifyRuns in staging order).
        Observable behavior is identical to ``for m in messages:
        send(m)`` — per-message latency accounting and per-message fault
        injection (an armed :meth:`fail_after` fires on exactly the same
        message it would have fired on, with every earlier message
        applied) — but the hardware applies the batch through
        :meth:`OpenFlowSwitch.add_flow_batch`, one pass that amortizes
        validation, capacity checks and table maintenance.

        Which path runs is read off the channel's own state, never
        chosen by the caller: only an armed fault needs each message,
        and iterating ``messages`` supplies them (building a run's
        FlowMods). Otherwise nothing is built: a run's rows go to the
        tables pending, a ModifyRun's built entries are filed as they
        are. The channel emits no trace events — the per-message history
        is the recovery commit journal's, and the trace's ``txn.commit``
        span records each switch's modeled time.

        One intentional divergence: when the switch rejects an install
        during up-front *validation* (a :class:`SimulationError`, e.g. a
        bad table id), nothing of its batch — the consecutive FlowMods,
        or the run, it arrived in — is applied, whereas the sequential
        loop would have installed the good prefix. That is strictly
        safer — the transaction layer rolls back from its snapshot
        either way — and stats still count exactly the messages the
        switch saw: every applied message plus the one that failed,
        matching what sequential :meth:`send` would have accumulated at
        the point of a mid-batch capacity failure.
        """
        if self._fail_countdown is not None:
            # an armed fault keeps exact per-message semantics trivially
            for m in messages:
                self.send(m)
            return
        if isinstance(messages, FlowMessages):
            staged = messages.staged
        elif isinstance(messages, FlowModRun):
            staged = [messages]
        else:
            staged = list(messages)
        reached = [0]
        try:
            self.switch.add_flow_batch(staged, reached)
        finally:
            self._charge(staged, reached[0])

    def _charge(self, staged, reached: int) -> None:
        """Count the first ``reached`` messages of ``staged`` in the
        stats, grouped as the channel has always charged a commit: a run
        of consecutive FlowMods, and a FlowModRun, as one bulk install
        (the latency times its messages); a delete, and each message of
        a ModifyRun, one by one. The grouping fixes the order of the
        float additions, and with it every modeled time."""
        stats = self.stats
        latency = self.flow_install_latency
        mods = 0  # consecutive FlowMods not charged yet
        for msg in staged:
            if reached <= 0:
                break
            if isinstance(msg, FlowMod):
                mods += 1
                reached -= 1
                continue
            if mods:
                stats.flow_mods += mods
                stats.modeled_time += latency * mods
                mods = 0
            if isinstance(msg, FlowDelete):
                stats.flow_deletes += 1
                stats.modeled_time += latency
                reached -= 1
            elif isinstance(msg, FlowModRun):
                n = min(len(msg), reached)
                stats.flow_mods += n
                stats.modeled_time += latency * n
                reached -= n
            elif isinstance(msg, ModifyRun):
                n = min(2 * len(msg.entries), reached)
                stats.flow_deletes += (n + 1) // 2
                stats.flow_mods += n // 2
                elapsed = stats.modeled_time
                for _ in range(n):
                    elapsed += latency
                stats.modeled_time = elapsed
                reached -= n
        if mods:
            stats.flow_mods += mods
            stats.modeled_time += latency * mods

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
