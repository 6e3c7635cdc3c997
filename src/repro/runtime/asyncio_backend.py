"""AsyncioBackend: the parties of a run on an asyncio loop, one scheduler.

The parties hand deliveries through a :class:`~repro.runtime.transport.
Transport` -- in-process queue pairs, or the sockets of :class:`~repro.
runtime.tcp_transport.TcpTransport` (one process for all parties, or one per
party under :mod:`repro.runtime.launcher`) -- and talk only to the
:class:`~repro.runtime.api.PartyRuntime` API, so the protocols run unmodified.

**One scheduler, optionally paced.**  Every clock drives the same loop
(:meth:`AsyncioBackend.drive`) over the simulator's own
:class:`~repro.runtime.event_queue.EventQueue`: at one instant deliveries go
before timers, the rest in push order, and each event is handled inline and
completely before the next.  ``now``, ``send_time``, timers and
``output_time`` are *nominal*: the instant the event was due.  On
``clock="virtual"`` (default) the loop never waits, and a seeded run
reproduces the simulator's outputs, metrics and event count.  On
``clock="real", time_scale=s`` it waits for the wall instant ``epoch + t*s``
before it hands out an event due at ``t`` (:class:`~repro.runtime.api.
RealClock`): over the in-process transport that *is* the virtual run, slowed
to wall time -- a late handler delays what follows, but its sends are still
due Δ after the instant it was due at, so lag reorders nothing.

**Sockets and schedule misses.**  On a socket transport a message to another
party leaves when it is sent: what the process sends at one instant goes to
:meth:`Transport.send` as one envelope of ``(message, due)`` pairs (``due =
now + delay``, plus a fault plan's extra latency) once the scheduler moves
past the instant, and the receiving scheduler queues each arrival at
``due``.  An arrival whose ``(due, delivery)`` key sorts before the event
being served -- ``due`` is past, or it is the instant being served and its
timers have begun -- is a **schedule miss**: it is handled at ``now``, exactly
an asynchronous delivery, which the protocols are built to survive; it is
recorded (:attr:`schedule_misses`, a :class:`~repro.runtime.errors.
ScheduleMiss` each) and logged, never dropped.  Within one process lag never
causes a miss: the frames to the process's own parties land
(:meth:`Transport.in_flight`) before anything more is handed out.  Across
processes a hop misses only if the sender's lag plus the socket's latency
exceed Δ·s.

Byzantine :class:`~repro.sim.adversary.Behavior` hooks and the accounting of
:class:`~repro.sim.simulator.SimulationMetrics` are the sim backend's;
network faults are one :class:`~repro.faults.plan.FaultPlan` on the
transport, which asks it for drop / duplicate / reorder decisions, while
``dispatch`` asks it for extra link latency.
"""

from __future__ import annotations

import asyncio
import inspect
import logging
import math
import random
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.field.gf import GF, default_field
from repro.runtime.api import (
    ExecutionBackend,
    PartyRuntime,
    RealClock,
    RunResult,
    VirtualClock,
    account_dispatch,
    incarnation_timer,
)
from repro.runtime.errors import ScheduleMiss
from repro.runtime.event_queue import MESSAGE, TIMER, EventQueue, full_collections_deferred
from repro.runtime.transport import InProcessTransport, Transport
from repro.sim.messages import Message
from repro.sim.network import NetworkModel, SynchronousNetwork
from repro.sim.party import Party
from repro.sim.simulator import SimulationMetrics

_log = logging.getLogger("repro.runtime.asyncio")

#: Wall seconds the scheduler waits at most while its queue is empty and a
#: socket may still bring work: how soon it notices a transport error.
_IDLE_POLL_S = 0.05


def _resolve(waiter: asyncio.Future, woken: bool) -> None:
    if not waiter.done():
        waiter.set_result(woken)


class AsyncioBackend(ExecutionBackend, PartyRuntime):
    """Party-runtime backend on an asyncio loop, over a transport."""

    def __init__(
        self,
        n: int,
        network: Optional[NetworkModel] = None,
        field: Optional[GF] = None,
        seed: int = 0,
        corrupt: Optional[Dict[int, Any]] = None,
        clock: Any = "virtual",
        time_scale: Optional[float] = None,
        transport: Optional[Transport] = None,
    ):
        self.n = n
        self.network = network or SynchronousNetwork()
        self.field = field or default_field()
        self.rng = random.Random(seed)
        self.corrupt_parties: Set[int] = set(corrupt or {})
        self.metrics = SimulationMetrics()
        self.transport = transport or InProcessTransport()
        if clock == "virtual":
            self.clock = VirtualClock()
        elif clock == "real":
            self.clock = RealClock(0.001 if time_scale is None else time_scale)
        elif isinstance(clock, (VirtualClock, RealClock)):
            if time_scale is not None:
                # Matching make_backend's rule for prebuilt backends: config
                # alongside a prebuilt instance would be silently ignored
                # (the instance's own time_scale wins), so reject it.
                raise ValueError(
                    "time_scale cannot be re-specified alongside a prebuilt "
                    f"clock instance ({clock!r} carries its own time scale)"
                )
            self.clock = clock
        else:
            # The scheduler paces exactly these two; another would crash it.
            raise ValueError(
                f"unknown clock {clock!r} (use 'virtual', 'real', or a "
                "VirtualClock/RealClock instance)"
            )
        self._virtual = isinstance(self.clock, VirtualClock)
        #: Socket transports put messages on the wire when sent, not when due.
        self._wire = not self.transport.synchronous_delivery
        if self._virtual and self._wire:
            raise ValueError(
                "the virtual clock requires a synchronously-enqueuing "
                "transport (use clock='real' with socket transports)"
            )

        self._queue = EventQueue()
        self._events_processed = 0
        #: Whether the event being served is a timer (the schedule-miss rule).
        self._serving_timer = False
        #: What the instant being served sends over the wire, as ``(message,
        #: due)`` pairs: one envelope, sent when the instant is over.
        self._outbox: List[Tuple[Message, float]] = []
        #: The scheduler's wait, if it is waiting, and the nominal instant
        #: work must be due before to cut it short.
        self._waiter: Optional[asyncio.Future] = None
        self._waiting_for = math.inf
        self.crash_epochs: Dict[int, int] = {}
        #: Arrivals handed out after the instant they were due (sockets only).
        self.schedule_misses: List[ScheduleMiss] = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: First exception raised by a protocol handler (re-raised by run()).
        self._failure: Optional[BaseException] = None

        # Party rngs derive from the backend rng in party order -- the exact
        # seeding discipline of the simulator, so a seeded virtual-clock run
        # reproduces the sim backend's protocol randomness.
        self.parties: Dict[int, Party] = {i: Party(i, self) for i in range(1, n + 1)}
        for party_id, behavior in (corrupt or {}).items():
            self.set_behavior(party_id, behavior)

    # -- PartyRuntime surface ----------------------------------------------
    @property
    def delta(self) -> float:
        return self.network.delta

    @property
    def now(self) -> float:
        return self.clock.now()

    @property
    def crashed(self) -> Set[int]:
        return self.transport.crashed

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def set_behavior(self, party_id: int, behavior) -> None:
        self.corrupt_parties.add(party_id)
        self.parties[party_id].behavior = behavior

    def submit_message(self, sender: int, recipient: int, tag: str, payload: Any) -> None:
        """Send a message; the sender's behaviour may drop or rewrite it."""
        if sender in self.transport.crashed:
            return
        sender_party = self.parties[sender]
        message = Message(sender, recipient, tag, payload, self.now, self.sized_bits(payload))
        for msg in sender_party.behavior.filter_send(sender_party, message):
            self.dispatch(msg)

    def dispatch(self, message: Message) -> None:
        delay = account_dispatch(self, message)
        # A fault plan can stretch delivery (per-link latency schedules,
        # sender clock skew).  Applying it here, to the nominal due instant,
        # makes the same plan behave identically on every clock and
        # transport (the TCP party processes run this same dispatch path).
        faults = self.transport.faults
        if faults is not None and message.sender != message.recipient:
            delay += faults.extra_delay(
                message.sender, message.recipient, message.send_time
            )
        if self._wire and message.sender != message.recipient:
            self._outbox.append((message, self.now + delay))
        else:
            self._queue.push(self.now + delay, MESSAGE, message)

    def schedule_timer(self, time: float, callback: Callable[[], None], owner: int = 0) -> None:
        time = max(time, self.now)
        self._queue.push(time, TIMER, incarnation_timer(self, callback, owner))
        self._wake(time)

    # -- transport faults ---------------------------------------------------
    def crash_party(self, party_id: int, at_time: Optional[float] = None) -> None:
        """Crash-stop a party's transport endpoint (optionally at a time).

        A crashed party neither sends nor receives from the crash on; it is
        counted as a corruption (crash faults are faults), so the run
        predicate stops waiting for its output.
        """
        if at_time is None:
            self._crash(party_id)
        else:
            self.schedule_timer(at_time, lambda: self._crash(party_id))

    def _crash(self, party_id: int) -> None:
        self.corrupt_parties.add(party_id)
        self.crash_epochs[party_id] = self.crash_epochs.get(party_id, 0) + 1
        self.transport.crash(party_id)

    def revive_party(self, party_id: int) -> Party:
        """Re-open a crashed party's endpoint with a blank-state Party.

        The fresh incarnation keeps the same inbox queue, which the
        transport drains of any deliveries that raced the crash.  Rejoin
        logic restores protocol state from a snapshot; nothing lost while
        down comes back.
        """
        self.transport.revive(party_id)
        self.corrupt_parties.discard(party_id)
        party = Party(party_id, self)
        self.parties[party_id] = party
        return party

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
        already_crashed = set(self.transport.crashed)
        opened = self.transport.open(list(self.parties))
        if inspect.isawaitable(opened):
            await opened
        self.transport.on_arrival = self._arrive
        for party_id in already_crashed:
            self.transport.crash(party_id)

    async def _main(
        self,
        factory: Callable[[Any], Any],
        max_time: Optional[float],
        max_events: Optional[int],
        wait_for_all_honest: bool,
        extra_predicate: Optional[Callable[[], bool]],
        epoch: Optional[float] = None,
    ) -> Dict[int, Any]:
        """One run; ``epoch`` is the wall instant of nominal 0 on the real
        clock (default: once every party has started, the current ``now``
        is due at once)."""
        if self._loop is None:
            await self.open()
        try:
            instances = self._instantiate(factory)
            done = self._done_predicate(instances, wait_for_all_honest, extra_predicate)
            if not self._virtual:
                self.clock.start(epoch)
            # Like Simulator.run, a run holds off full collections.
            with full_collections_deferred():
                await self.drive(done, max_time, max_events)
        finally:
            self.transport.close()
            self._loop = None
        return instances

    async def drive(
        self,
        done: Callable[[], bool],
        max_time: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """The scheduler: hand out the queue's events until ``done()``, or
        until nothing is queued (or due by ``max_time``) and the transport
        carries nothing more.  An event counts when it is handed out, whatever
        the transport makes of it, so runs stop at the simulator's
        ``max_events`` points."""
        queue = self._queue
        pending = queue.keys
        clock = self.clock
        transport = self.transport
        paced = not self._virtual
        missed = len(self.schedule_misses)
        try:
            while True:
                if self._failure is not None:
                    raise self._failure
                if done():
                    return
                if max_events is not None and self._events_processed >= max_events:
                    return
                if self._outbox and (not pending or pending[0][0] > clock.now()):
                    # The instant is over: what it sent leaves.
                    envelope, self._outbox = self._outbox, []
                    transport.send(envelope)
                if not pending or (max_time is not None and pending[0][0] > max_time):
                    if transport.quiescent():
                        return
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
                if paced:
                    due = pending[0][0]
                    if due > clock.now() and await self._sleep(clock.wall(due), due):
                        continue  # something due sooner came in
                    if transport.in_flight():
                        # This process's own frames land before anything
                        # more is handed out: lag never makes them late.
                        await self._sleep(self._loop.time() + _IDLE_POLL_S, math.inf)
                        continue
                time, is_timer, item = queue.pop()
                self._events_processed += 1
                self._serving_timer = is_timer
                clock.advance_to(time)
                if type(item) is Message:
                    self._handle_inline(transport.deliver(item))
                else:
                    try:
                        item()
                    except Exception as exc:
                        self._failure = exc
                if not pending and transport.quiescent():
                    # Quiescing: release any reorder-held messages so a
                    # fault cannot strand the tail of an otherwise-live
                    # execution.
                    self._handle_inline(transport.flush_reordered())
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
        now = self.clock.now()
        if due < now or (due == now and self._serving_timer):
            self.schedule_misses.append(
                ScheduleMiss(message.recipient, message.sender, message.tag, due, now)
            )
            due = now
        self._queue.push(due, MESSAGE, partial(self._hand_over, message))
        self._wake(due)

    def _hand_over(self, message: Message) -> None:
        """Deliver an arrival that is due; its transport rules ran at the sender."""
        if message.recipient in self.transport.crashed:
            return
        self.metrics.record_delivery()
        self.parties[message.recipient].deliver(message.sender, message.tag, message.payload)

    def _handle_inline(self, pairs) -> None:
        """Handle the pairs the transport just enqueued, inline: each is
        popped straight back off its inbox (drained between events, so FIFO
        order matches the pairs)."""
        for message, handled in pairs:
            self.metrics.record_delivery()
            queued = self.transport.inbox(message.recipient).get_nowait()
            if queued[1] is not handled:
                # A transport that defers/batches enqueues breaks the
                # drained-between-events FIFO invariant this relies on; fail
                # loudly instead of double-delivering.
                raise RuntimeError(
                    "inline dispatch requires the transport to enqueue "
                    "delivered pairs synchronously and in order"
                )
            try:
                if self._failure is None:
                    self.parties[message.recipient].deliver(
                        message.sender, message.tag, message.payload
                    )
            except Exception as exc:
                self._failure = exc
            finally:
                handled.set()
