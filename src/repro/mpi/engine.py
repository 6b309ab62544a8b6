"""The MPI engine: runs rank programs against a simulated network.

Each rank binds to one host (by transport address) and executes its op
list sequentially: ``Compute`` advances simulated time, ``Send`` blocks
until the message's last byte leaves the NIC (eager protocol), ``Recv``
blocks until a matching message has fully arrived (messages arriving
early are buffered, as real MPI eager receives are). The job's
Application Completion Time (ACT) is the simulated time at which the
last rank finishes — the quantity Table IV compares across arms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mpi.program import Compute, ISend, Op, Recv, Send, WaitAllSent, validate_program
from repro.netsim.network import Network
from repro.netsim.transport import RoceTransport
from repro.util.errors import DeadlockError, SimulationError


@dataclass
class RankState:
    """Execution state of one rank."""

    rank: int
    address: str
    transport: RoceTransport
    program: list[Op]
    pc: int = 0
    finished_at: float | None = None
    blocked_on: str = ""
    # eager buffering: (src_rank, tag) -> arrival count
    arrived: dict[tuple[int, int], int] = field(default_factory=dict)
    waiting: tuple[int, int] | None = None
    isends_inflight: int = 0
    waiting_fence: bool = False
    bytes_sent: int = 0
    bytes_received: int = 0


@dataclass
class MpiResult:
    """Outcome of one job."""

    act: float  # application completion time (simulated seconds)
    events: int  # simulator events processed
    bytes_sent: int
    per_rank_finish: dict[int, float]


class MpiJob:
    """One MPI application bound to a network."""

    def __init__(
        self,
        network: Network,
        rank_addresses: dict[int, str],
        programs: dict[int, list[Op]],
        *,
        mtu: int = 4096,
    ) -> None:
        if set(rank_addresses) != set(programs):
            raise SimulationError("rank_addresses and programs must cover the same ranks")
        self.network = network
        self.sim = network.sim
        self.addr_to_rank = {a: r for r, a in rank_addresses.items()}
        if len(self.addr_to_rank) != len(rank_addresses):
            raise SimulationError("two ranks bound to one host address")
        num_ranks = len(rank_addresses)
        self.ranks: dict[int, RankState] = {}
        for rank, address in rank_addresses.items():
            validate_program(programs[rank], num_ranks, rank)
            transport = RoceTransport(network, address, mtu=mtu)
            state = RankState(
                rank=rank,
                address=address,
                transport=transport,
                program=list(programs[rank]),
            )
            transport.on_message(self._receiver(state))
            self.ranks[rank] = state

    # --- receive matching ---------------------------------------------------
    def _receiver(self, state: RankState):
        def on_message(src_addr: str, tag: int, size: int, _now: float) -> None:
            src_rank = self.addr_to_rank.get(src_addr)
            if src_rank is None:
                return  # foreign traffic (coexisting deployment)
            key = (src_rank, tag)
            state.arrived[key] = state.arrived.get(key, 0) + 1
            state.bytes_received += size
            if state.waiting == key:
                # wake the rank; _step re-runs the Recv, which consumes
                # the buffered arrival and advances the program counter
                state.waiting = None
                self._step(state)

        return on_message

    @staticmethod
    def _consume(state: RankState, key: tuple[int, int]) -> None:
        left = state.arrived[key] - 1
        if left:
            state.arrived[key] = left
        else:
            del state.arrived[key]

    # --- program execution ---------------------------------------------------
    def _step(self, state: RankState) -> None:
        while state.pc < len(state.program):
            op = state.program[state.pc]
            if isinstance(op, Compute):
                state.pc += 1
                if op.seconds > 0:
                    state.blocked_on = "compute"
                    self.sim.schedule(op.seconds, self._step, state)
                    return
            elif isinstance(op, (Send, ISend)):
                state.pc += 1
                dst_addr = self.ranks[op.dst].address
                state.bytes_sent += op.nbytes
                if isinstance(op, Send):
                    state.blocked_on = f"send->{op.dst}"
                    state.transport.send(
                        dst_addr, op.nbytes, tag=op.tag,
                        on_sent=lambda: self._step(state),
                    )
                    return
                state.isends_inflight += 1

                def sent_done() -> None:
                    state.isends_inflight -= 1
                    if state.waiting_fence and state.isends_inflight == 0:
                        state.waiting_fence = False
                        self._step(state)

                state.transport.send(
                    dst_addr, op.nbytes, tag=op.tag, on_sent=sent_done
                )
            elif isinstance(op, WaitAllSent):
                state.pc += 1
                if state.isends_inflight:
                    state.waiting_fence = True
                    state.blocked_on = "waitall"
                    return
            elif isinstance(op, Recv):
                key = (op.src, op.tag)
                if key in state.arrived:
                    self._consume(state, key)
                    state.pc += 1
                    continue
                state.waiting = key
                state.blocked_on = f"recv<-{op.src}#{op.tag}"
                return
            else:  # pragma: no cover
                raise SimulationError(f"unknown op {op!r}")
        if state.finished_at is None:
            state.finished_at = self.sim.now
            state.blocked_on = "done"

    # --- run -------------------------------------------------------------------
    def run(
        self,
        *,
        max_events: int | None = None,
        watchdog_interval: float = 0.25,
    ) -> MpiResult:
        """Execute to completion; raises :class:`DeadlockError` if the
        job stops making progress (a PFC deadlock or a mismatched
        program).

        Two stall modes exist: the event queue *drains* with ranks still
        blocked (missing message), or it keeps churning periodic events
        (DCQCN timers, pacing retries) while zero application bytes move
        — the signature of a real PFC deadlock, where paused queues pin
        every data packet. The watchdog samples delivered bytes and
        rank completions every ``watchdog_interval`` simulated seconds
        and declares deadlock after a full window of no progress."""
        start_events = self.sim.events_processed

        def progress() -> tuple[int, int, int, int]:
            return (
                sum(s.bytes_received for s in self.ranks.values()),
                sum(s.transport.bytes_received for s in self.ranks.values()),
                sum(s.finished_at is not None for s in self.ranks.values()),
                sum(s.pc for s in self.ranks.values()),
            )

        for state in self.ranks.values():
            self._step(state)

        last = progress()
        while True:
            self.sim.run(
                until=self.sim.now + watchdog_interval,
                max_events=max_events,
            )
            if self.sim.pending == 0:
                break
            if all(s.finished_at is not None for s in self.ranks.values()):
                # drain any residual in-flight events (acks, timers)
                self.sim.run(max_events=max_events)
                break
            current = progress()
            computing = any(
                s.blocked_on == "compute" and s.finished_at is None
                for s in self.ranks.values()
            )
            if current == last and not computing:
                stuck = {
                    r: s.blocked_on
                    for r, s in self.ranks.items()
                    if s.finished_at is None
                }
                raise DeadlockError(
                    f"no progress for {watchdog_interval}s of simulated "
                    f"time with {len(stuck)} rank(s) blocked (PFC "
                    "deadlock or mismatched program): "
                    + ", ".join(
                        f"r{r}:{w}" for r, w in sorted(stuck.items())[:8]
                    )
                )
            last = current

        stuck = {
            r: s.blocked_on for r, s in self.ranks.items() if s.finished_at is None
        }
        if stuck:
            raise DeadlockError(
                f"job stalled with {len(stuck)} rank(s) blocked: "
                + ", ".join(f"r{r}:{w}" for r, w in sorted(stuck.items())[:8])
            )
        return MpiResult(
            act=max(s.finished_at for s in self.ranks.values()),
            events=self.sim.events_processed - start_events,
            bytes_sent=sum(s.bytes_sent for s in self.ranks.values()),
            per_rank_finish={r: s.finished_at for r, s in self.ranks.items()},
        )
