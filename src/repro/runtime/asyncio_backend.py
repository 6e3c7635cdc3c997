"""AsyncioBackend: every party is a coroutine consuming an inbox queue.

Unlike the discrete-event :class:`~repro.runtime.sim_backend.SimBackend`
(one event loop stepping all parties), this backend gives each party an
independent receive loop reading ``(message, handled)`` pairs from its
:class:`~repro.runtime.transport.Transport` inbox -- the HoneyBadgerMPC-style
deployment shape, with in-process queue pairs standing in for sockets.  The
same unmodified protocol classes run here because they only ever talk to the
:class:`~repro.runtime.api.PartyRuntime` context API.

Two clock modes:

* ``clock="virtual"`` (default) -- simulated time advanced by a central
  scheduler that drains the simulator's own
  :class:`~repro.runtime.event_queue.EventQueue`.  Fully deterministic: a
  seeded run replays bit-for-bit (same outputs, same
  :class:`SimulationMetrics`, same event count), and because the queue, rng
  derivations and delay draws are the simulator's, a virtual-clock run
  reproduces the simulator's outputs.  Since the driver
  totally orders execution anyway, deliveries are handled *inline*: the
  scheduler pops each transport-enqueued pair straight off the inbox and
  invokes the party handler directly, skipping the per-message queue
  wakeup / task switch / handled-event round trip that used to make the
  virtual clock ~2.4x the discrete-event simulator's wall time (the party
  receive coroutines only run under the real clock).
* ``clock="real"`` -- message delays become genuine loop timers
  (``time_scale`` real seconds per simulated unit) and the party coroutines
  interleave freely, so executions exercise true concurrency and measure
  wall-clock throughput; like a real network, ordering is not reproducible.
  The unit of the fabric is the *envelope*: what one loop iteration
  dispatches with one drawn delay shares one timer and reaches the transport
  as one ``deliver_many`` call (see :meth:`AsyncioBackend._spawn_delivery`),
  which a socket transport turns into one frame per channel.

Byzantine :class:`~repro.sim.adversary.Behavior` hooks and the bit-accounting
:class:`~repro.sim.simulator.SimulationMetrics` work identically to the sim
backend; network faults are one :class:`~repro.faults.plan.FaultPlan` on the
injected transport (``faults=``): the transport asks it for drop / duplicate
/ reorder decisions, ``dispatch`` here asks it for extra link latency.
"""

from __future__ import annotations

import asyncio
import inspect
import random
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
from repro.runtime.event_queue import MESSAGE, TIMER, EventQueue, full_collections_deferred
from repro.runtime.transport import InProcessTransport, Transport
from repro.sim.messages import Message
from repro.sim.network import NetworkModel, SynchronousNetwork
from repro.sim.party import Party
from repro.sim.simulator import SimulationMetrics


class AsyncioBackend(ExecutionBackend, PartyRuntime):
    """Concurrent party-runtime backend over an in-process transport."""

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
            # The two driver loops are written against exactly these clock
            # disciplines (heap stepping vs time_scale sleeps); an arbitrary
            # Clock subclass would crash mid-run on a missing time_scale.
            raise ValueError(
                f"unknown clock {clock!r} (use 'virtual', 'real', or a "
                "VirtualClock/RealClock instance)"
            )
        self._virtual = isinstance(self.clock, VirtualClock)
        if self._virtual and not self.transport.synchronous_delivery:
            raise ValueError(
                "the virtual clock requires a synchronously-enqueuing "
                "transport (use clock='real' with socket transports)"
            )

        self._queue = EventQueue()
        self._events_processed = 0
        self.crash_epochs: Dict[int, int] = {}
        #: (time, callback) timers registered before the loop exists (real clock).
        self._deferred_timers: List[Tuple[float, Callable[[], None]]] = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: Timers plus dispatched-but-unflushed messages (real clock).
        self._pending = 0
        #: drawn delay -> envelope still taking this loop iteration's sends.
        self._open_envelopes: Dict[float, List[Message]] = {}
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
        # sender clock skew).  Applying it here -- in simulated time, before
        # the delay is either heap-scheduled or slept -- makes the same plan
        # behave identically under the virtual clock, the real clock, and
        # the TCP transport (whose children run this same dispatch path).
        faults = self.transport.faults
        if faults is not None and message.sender != message.recipient:
            delay += faults.extra_delay(
                message.sender, message.recipient, message.send_time
            )
        if self._virtual:
            self._queue.push(self.now + delay, MESSAGE, message)
        else:
            self._spawn_delivery(message, delay)

    def schedule_timer(self, time: float, callback: Callable[[], None], owner: int = 0) -> None:
        callback = incarnation_timer(self, callback, owner)
        if self._virtual:
            self._queue.push(max(time, self.now), TIMER, callback)
            return
        if self._loop is None:
            self._deferred_timers.append((time, callback))
            return
        self._pending += 1

        def _fire() -> None:
            self._pending -= 1
            self._events_processed += 1
            try:
                if self._failure is None:
                    callback()
            except Exception as exc:
                self._failure = exc

        self._loop.call_later(
            max(time - self.now, 0.0) * self.clock.time_scale, _fire
        )

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

        The fresh incarnation keeps the same inbox queue (its receive loop,
        if any, holds a reference), which the transport drains of any
        deliveries that raced the crash.  Rejoin logic restores protocol
        state from a snapshot; nothing lost while down comes back.
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

    async def _main(
        self,
        factory: Callable[[Any], Any],
        max_time: Optional[float],
        max_events: Optional[int],
        wait_for_all_honest: bool,
        extra_predicate: Optional[Callable[[], bool]],
    ) -> Dict[int, Any]:
        self._loop = asyncio.get_running_loop()
        # An envelope a previous run's loop never sealed has no timer here.
        self._open_envelopes.clear()
        already_crashed = set(self.transport.crashed)
        opened = self.transport.open(list(self.parties))
        if inspect.isawaitable(opened):
            await opened
        # Socket transports enqueue from their reader tasks, outside the
        # pairs deliver() returns; they report those through this hook so
        # every local delivery is counted exactly once.
        self.transport.on_delivery = self.metrics.record_delivery
        for party_id in already_crashed:
            self.transport.crash(party_id)
        if isinstance(self.clock, RealClock):
            self.clock.start()
        for time, callback in self._deferred_timers:
            self.schedule_timer(time, callback)
        self._deferred_timers = []

        # Virtual-clock runs handle deliveries inline in the scheduler (see
        # _run_virtual); the per-party receive loops exist for the real
        # clock, where parties genuinely interleave.
        receive_loops = (
            []
            if self._virtual
            else [
                asyncio.ensure_future(self._party_loop(party))
                for party in self.parties.values()
            ]
        )
        try:
            instances = self._instantiate(factory)
            done = self._done_predicate(instances, wait_for_all_honest, extra_predicate)
            if self._virtual:
                await self._run_virtual(done, max_time, max_events)
            else:
                await self._run_real(done, max_time, max_events)
            if self._failure is not None:
                # A handler failed right before the driver drained/quiesced.
                raise self._failure
        finally:
            for task in receive_loops:
                task.cancel()
            await asyncio.gather(*receive_loops, return_exceptions=True)
            self.transport.close()
            self._loop = None
        return instances

    async def _party_loop(self, party: Party) -> None:
        """One party's receive loop: drain the inbox, handle, acknowledge.

        A protocol handler that raises must fail the whole run the way the
        sim backend does (the exception propagates out of ``run``), so the
        first failure is recorded for the driver to re-raise; the loop keeps
        consuming so in-flight ``handled`` events still fire.
        """
        inbox = self.transport.inbox(party.id)
        while True:
            message, handled = await inbox.get()
            try:
                if self._failure is None:
                    party.deliver(message.sender, message.tag, message.payload)
            except Exception as exc:
                self._failure = exc
            finally:
                handled.set()
                self._events_processed += 1

    def _handle_inline(self, pairs) -> None:
        """Handle transport-enqueued pairs synchronously (virtual clock only).

        The virtual-clock driver fully orders execution -- each popped event
        is completely handled before the next pops -- so routing every
        delivery through a party coroutine (queue put, getter wakeup, task
        switch, handled-event wait, switch back) added nothing but
        per-message churn.  The driver pops each pair straight back off the
        recipient's inbox (the transport just enqueued it; inboxes are
        always drained between events, so FIFO order matches the returned
        pairs) and invokes the party handler inline: same delivery order,
        same metrics, same first-failure discipline.
        """
        for message, handled in pairs:
            self.metrics.record_delivery()
            queued = self.transport.inbox(message.recipient).get_nowait()
            if queued[1] is not handled:
                # A transport that defers/batches enqueues breaks the
                # drained-between-events FIFO invariant this fast path
                # relies on; fail loudly instead of double-delivering.
                raise RuntimeError(
                    "virtual-clock inline dispatch requires the transport to "
                    "enqueue delivered pairs synchronously and in order"
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

    async def _run_virtual(
        self,
        done: Callable[[], bool],
        max_time: Optional[float],
        max_events: Optional[int],
    ) -> None:
        """Deterministic scheduler: drain the event queue, handle events inline.

        The queue is the simulator's, an event is counted when the queue
        hands it out (whatever the transport then makes of it: a recipient
        that has crashed, a fault that drops or doubles the delivery), and
        each delivered message is fully handled before the next event is
        taken, so the execution is totally ordered, seed-reproducible and
        stops at the simulator's ``max_events`` points.  Like
        ``Simulator.run`` the loop holds off full collections.
        """
        queue = self._queue
        pending = queue.keys
        with full_collections_deferred():
            while pending:
                if self._failure is not None:
                    raise self._failure
                if done():
                    return
                if max_time is not None and pending[0][0] > max_time:
                    return
                if max_events is not None and self._events_processed >= max_events:
                    return
                time, is_timer, item = queue.pop()
                self._events_processed += 1
                self.clock.advance_to(time)
                if is_timer:
                    try:
                        item()
                    except Exception as exc:
                        self._failure = exc
                else:
                    self._handle_inline(self.transport.deliver(item))
                if not pending:
                    # Quiescing: release any reorder-held messages so a fault
                    # cannot strand the tail of an otherwise-live execution.
                    self._handle_inline(self.transport.flush_reordered())

    async def _run_real(
        self,
        done: Callable[[], bool],
        max_time: Optional[float],
        max_events: Optional[int],
    ) -> None:
        """Wall-clock driver: poll for completion, detect quiescence.

        Polling (rather than a per-event wake signal) keeps the hot path of
        a run -- hundreds of thousands of dispatched messages -- free of
        driver synchronization; the ~5ms completion-detection latency is
        noise against any real execution.
        """
        assert self._loop is not None
        deadline = None
        if max_time is not None:
            deadline = self._loop.time() + max_time * self.clock.time_scale
        while True:
            if self._failure is not None:
                raise self._failure
            if done():
                return
            if max_events is not None and self._events_processed >= max_events:
                return
            if (
                self._pending == 0
                and self.transport.quiescent()
                and all(self.transport.inbox(pid).empty() for pid in self.parties)
            ):
                released = self.transport.flush_reordered()
                for _pair in released:
                    self.metrics.record_delivery()
                if not released and self.transport.quiescent():
                    return  # quiescent: nothing in flight, nothing queued
                # A socket transport's flush puts held frames back on the
                # wire (returning no local pairs); its quiescent() flips
                # false until they land, so the loop keeps driving.
            if deadline is not None and self._loop.time() >= deadline:
                return
            await asyncio.sleep(0.005)

    def _spawn_delivery(self, message: Message, delay: float) -> None:
        """Real clock: join the envelope open for this delay, or open one.

        What one loop iteration dispatches with one drawn delay travels
        together: the first message opens the envelope and sets its timer,
        the rest ride along, and a ``call_soon`` seals every open envelope
        when the iteration ends.  The timer is the first entry's, so no
        message reaches the transport later than its own timer would have
        taken it, and envelopes of one delay flush in the order they were
        opened -- per-channel FIFO, as with a timer per message.
        """
        assert self._loop is not None
        self._pending += 1
        envelope = self._open_envelopes.get(delay)
        if envelope is not None:
            envelope.append(message)
            return
        if not self._open_envelopes:
            # Queued ahead of any envelope timer below, so an envelope is
            # always sealed before it is flushed.
            self._loop.call_soon(self._open_envelopes.clear)
        envelope = self._open_envelopes[delay] = [message]
        self._loop.call_later(
            delay * self.clock.time_scale, self._flush_envelope, envelope
        )

    def _flush_envelope(self, envelope: List[Message]) -> None:
        self._pending -= len(envelope)
        for _pair in self.transport.deliver_many(envelope):
            self.metrics.record_delivery()
