"""AsyncioBackend: the simulator on an asyncio loop, paced by the wall clock.

:class:`AsyncioBackend` *is* the :class:`~repro.sim.simulator.Simulator` --
its queue, :meth:`~repro.sim.simulator.Simulator.step`, timers, crash and
revive, metrics, rng, party seeding and fault gate -- plus what wall time
and sockets need.  It hands out an event due at nominal ``t`` no earlier
than the wall instant ``epoch + t * time_scale`` (:class:`RealClock`), and
it can carry what its parties send one another over the
sockets of a :class:`~repro.runtime.tcp_transport.TcpTransport` (one process
for all parties, or one per party under :mod:`repro.runtime.launcher`).
``now``, ``send_time``, timers and ``output_time`` stay nominal: with no
transport a run is the simulator's run slowed to wall time -- a late handler
delays what follows, but its sends are still due Δ after the instant it was
due at, so lag reorders nothing.

**Sockets and schedule misses.**  Over a transport a message to another
party leaves when it is sent: what the process sends at one instant goes to
``transport.send`` as one envelope of ``(message, due)`` pairs once the
scheduler moves past the instant, after the fault gate has run over it in
emission order, and the receiving scheduler queues each arrival at ``due``.
An arrival whose ``(due, delivery)`` key sorts before the event being served
-- ``due`` is past, or it is the instant being served and its timers have
begun -- is a **schedule miss**: it is handled at ``now``, exactly an
asynchronous delivery, which the protocols are built to survive; it is
recorded (:attr:`AsyncioBackend.schedule_misses`, a :class:`~repro.runtime.
errors.ScheduleMiss` each) and logged, never dropped.  Within one process
lag never causes a miss: the frames to the process's own parties land
(``transport.in_flight()``) before anything more is handed out.  Across
processes a hop misses only if the sender's lag plus the socket's latency
exceed Δ·s.
"""

from __future__ import annotations

import asyncio
import logging
import math
import time as _time
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.faults.plan import FaultPlan
from repro.field.gf import GF
from repro.runtime.errors import ScheduleMiss
from repro.sim.adversary import Behavior
from repro.sim.api import RunResult, account_dispatch
from repro.sim.event_queue import MESSAGE, TIMER, full_collections_deferred
from repro.sim.messages import Message
from repro.sim.network import NetworkModel
from repro.sim.simulator import Simulator

if TYPE_CHECKING:  # the socket code loads only where a transport is built
    from repro.runtime.tcp_transport import TcpTransport

_log = logging.getLogger("repro.runtime.asyncio")

#: Wall seconds the scheduler waits at most while its queue is empty and a
#: socket may still bring work: how soon it notices a transport error.
_IDLE_POLL_S = 0.05


def _resolve(waiter: asyncio.Future, woken: bool) -> None:
    if not waiter.done():
        waiter.set_result(woken)


class RealClock:
    """The wall clock that paces nominal time: the scheduler hands out an
    event due at ``t`` at ``epoch + t * time_scale`` of ``time.monotonic()``
    (asyncio's loop clock; system-wide, so processes on one host can share
    an epoch).  The scheduler's ``now`` stays nominal."""

    def __init__(self, time_scale: float = 0.001):
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self.time_scale = time_scale
        self.epoch: Optional[float] = None

    def start(self, epoch: Optional[float] = None, now: float = 0.0) -> None:
        """Pin the epoch; by default nominal ``now`` is due at once."""
        if epoch is None:
            epoch = _time.monotonic() - now * self.time_scale
        self.epoch = epoch

    def elapsed(self) -> float:
        """The nominal instant the wall clock has reached."""
        return (_time.monotonic() - self.epoch) / self.time_scale

    def wall(self, time: float) -> float:
        """The ``time.monotonic()`` instant nominal ``time`` is due at."""
        return self.epoch + time * self.time_scale

    def __repr__(self) -> str:
        return f"RealClock(time_scale={self.time_scale})"


class AsyncioBackend(Simulator):
    """The simulator paced by the wall clock, optionally over sockets."""

    def __init__(
        self,
        n: int,
        network: Optional[NetworkModel] = None,
        field: Optional[GF] = None,
        seed: int = 0,
        corrupt: Optional[Dict[int, Behavior]] = None,
        time_scale: float = 0.001,
        transport: Optional[TcpTransport] = None,
        faults: Optional[FaultPlan] = None,
    ):
        super().__init__(
            n, network=network, field=field, seed=seed, corrupt=corrupt, faults=faults,
        )
        self.clock = RealClock(time_scale)
        self.transport = transport
        #: Whether the event being served is a timer (the schedule-miss rule).
        self._serving_timer = False
        #: What the instant being served sends over the wire, as ``(message,
        #: due)`` pairs the gate has yet to see.
        self._outbox: List[Tuple[Message, float]] = []
        #: The scheduler's wait, if it is waiting, and the nominal instant
        #: work must be due before to cut it short.
        self._waiter: Optional[asyncio.Future] = None
        self._waiting_for = math.inf
        #: Arrivals handed out after the instant they were due (sockets only).
        self.schedule_misses: List[ScheduleMiss] = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    def dispatch(self, message: Message) -> None:
        if self.transport is None or message.sender == message.recipient:
            super().dispatch(message)
        else:
            self._outbox.append((message, self.now + account_dispatch(self, message)))

    def _gated_step(self, is_timer: bool, item: Any) -> None:
        if self.transport is None:
            super()._gated_step(is_timer, item)
        elif is_timer:
            item()
        elif item.recipient not in self.crashed:
            # An arrival (the gate ran over it at the sender) or a
            # self-delivery (never faulted, and over sockets not a hand-out
            # that releases a hold: :meth:`_send`).
            self._deliver(item)

    def _send(self) -> None:
        """The instant is over: what it sent leaves, through the gate, as one
        envelope.  On a synchronous network a message the gate held goes at
        the envelope's end; on an asynchronous one it waits for the next
        message to its recipient, or for quiescence (:meth:`drive`)."""
        envelope, self._outbox = self._outbox, []
        gate = self._gate
        wire = []
        for message, due in envelope:
            if gate is not None:
                wire += gate.admit(message, (message, due))
            elif message.recipient not in self.crashed:
                wire.append((message, due))
        if gate is not None and self.network.is_synchronous:
            wire += gate.flush()
        self.transport.send(wire)

    # -- execution ----------------------------------------------------------
    def run(
        self,
        factory: Callable[[Any], Any],
        max_time: Optional[float] = None,
        max_events: Optional[int] = None,
        wait_for_all_honest: bool = True,
        extra_predicate: Optional[Callable[[], bool]] = None,
    ) -> RunResult:
        """Instantiate the protocol at every party and drive it to completion."""
        instances = asyncio.run(
            self._main(factory, max_time, max_events, wait_for_all_honest, extra_predicate)
        )
        return RunResult(self, instances)

    async def open(self) -> None:
        """Open the transport's endpoints in the running loop (``_main``
        does, unless a party process did so to listen before reporting in)."""
        self._loop = asyncio.get_running_loop()
        if self.transport is not None:
            self.transport.on_arrival = self._arrive
            self.transport.modulus = self.field.modulus
            await self.transport.open(list(self.parties))

    async def _main(
        self,
        factory: Callable[[Any], Any],
        max_time: Optional[float],
        max_events: Optional[int],
        wait_for_all_honest: bool,
        extra_predicate: Optional[Callable[[], bool]],
        epoch: Optional[float] = None,
    ) -> Dict[int, Any]:
        """One run; ``epoch`` is the wall instant of nominal 0 (default: once
        every party has started, the current ``now`` is due at once)."""
        if self._loop is None:
            await self.open()
        try:
            instances = self._instantiate(factory)
            done = self._done_predicate(instances, wait_for_all_honest, extra_predicate)
            self.clock.start(epoch, self.now)
            # Like Simulator.run_until, a run holds off full collections.
            with full_collections_deferred():
                await self.drive(done, max_time, max_events)
        finally:
            if self.transport is not None:
                self.transport.close()
            self._loop = None
        return instances

    async def drive(
        self,
        done: Callable[[], bool],
        max_time: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Hand the queue's events to :meth:`step`, each at its wall instant,
        until ``done()``, or until nothing is queued (or due by ``max_time``)
        and the transport carries nothing more."""
        pending = self._queue.keys
        clock = self.clock
        transport = self.transport
        missed = len(self.schedule_misses)
        try:
            while True:
                if done():
                    return
                if max_events is not None and self._events_processed >= max_events:
                    return
                if self._outbox and (
                    not pending or pending[0][0] > self.now
                ):
                    self._send()
                if not pending or (max_time is not None and pending[0][0] > max_time):
                    if transport is None:
                        return
                    if transport.quiescent():
                        # Quiescing: a held message goes, so a fault cannot
                        # strand the tail of an otherwise-live execution.
                        held = [] if self._gate is None else self._gate.flush()
                        if not held:
                            return
                        transport.send(held)
                        continue
                    # A socket may still bring work due before max_time.
                    now = self._loop.time()
                    until = now + _IDLE_POLL_S
                    if max_time is not None:
                        deadline = clock.wall(max_time)
                        if now >= deadline:
                            return
                        until = min(until, deadline)
                    await self._sleep(until, math.inf)
                    continue
                due, priority = pending[0]
                if due > self.now and await self._sleep(clock.wall(due), due):
                    continue  # something due sooner came in
                if transport is not None and transport.in_flight():
                    # This process's own frames land before anything more is
                    # handed out: lag never makes them late.
                    await self._sleep(self._loop.time() + _IDLE_POLL_S, math.inf)
                    continue
                self._serving_timer = priority == TIMER
                self.step()
        finally:
            if len(self.schedule_misses) > missed:
                worst = max(self.schedule_misses[missed:], key=lambda miss: miss.lag)
                _log.warning(
                    "%d schedule misses (handled late, as asynchronous "
                    "deliveries); the worst: %s",
                    len(self.schedule_misses) - missed, worst,
                )

    async def _sleep(self, when: float, below: float) -> bool:
        """Wait for loop time ``when``: True if work due before nominal
        ``below`` came in first.  Already late, it only yields, so the
        sockets and the other tasks run."""
        loop = self._loop
        if when <= loop.time():
            await asyncio.sleep(0)
            return False
        waiter = self._waiter = loop.create_future()
        self._waiting_for = below
        timer = loop.call_at(when, _resolve, waiter, False)
        try:
            return await waiter
        finally:
            timer.cancel()
            self._waiter = None
            self._waiting_for = math.inf

    def _wake(self, time: float) -> None:
        """Cut the scheduler's wait short for work due at ``time``."""
        if self._waiter is not None and time < self._waiting_for:
            _resolve(self._waiter, True)

    def _arrive(self, message: Message, due: float) -> None:
        """A message off the wire: queued at ``due``, or at ``now`` -- a
        schedule miss -- if its key sorts before the event being served."""
        now = self.now
        if due < now or (due == now and self._serving_timer):
            self.schedule_misses.append(
                ScheduleMiss(message.recipient, message.sender, message.tag, due, now)
            )
            due = now
        self._queue.push(due, MESSAGE, message)
        self._wake(due)
