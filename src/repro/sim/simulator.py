"""The discrete-event simulator driving all protocol executions: the one
scheduler and the ``"sim"`` execution backend."""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Optional, Set

from repro.faults.plan import FaultGate, FaultPlan
from repro.field.gf import GF, default_field
from repro.sim.adversary import Behavior
from repro.sim.api import (
    ExecutionBackend,
    PartyRuntime,
    RunResult,
    account_dispatch,
    incarnation_timer,
)
from repro.sim.event_queue import MESSAGE, TIMER, EventQueue, full_collections_deferred
from repro.sim.messages import Message
from repro.sim.network import NetworkModel, SynchronousNetwork
from repro.sim.party import Party


class SimulationMetrics:
    """Counters for the communication-complexity experiments.

    ``honest_bits`` counts bits sent by honest parties over real channels
    (self-delivery is free), which is the unit the paper's complexity
    statements use.  ``bits_by_round`` buckets sent bits into synchronous
    rounds (send time divided by Delta) and ``max_message_bits`` tracks the
    largest single message.
    """

    def __init__(self) -> None:
        self.messages_sent = 0
        self.messages_delivered = 0
        self.honest_bits = 0
        self.total_bits = 0
        self.bits_by_tag_prefix: Dict[str, int] = {}
        self.bits_by_round: Dict[int, int] = {}
        self.max_message_bits = 0
        self.max_message_bits_by_tag_prefix: Dict[str, int] = {}

    def record_send(
        self, message: Message, sender_corrupt: bool, round_index: Optional[int] = None
    ) -> None:
        bits = message.bits
        self.messages_sent += 1
        self.total_bits += bits
        if not sender_corrupt:
            self.honest_bits += bits
        prefix = message.tag.partition("/")[0]
        self.bits_by_tag_prefix[prefix] = self.bits_by_tag_prefix.get(prefix, 0) + bits
        if bits > self.max_message_bits:
            self.max_message_bits = bits
        if bits > self.max_message_bits_by_tag_prefix.get(prefix, 0):
            self.max_message_bits_by_tag_prefix[prefix] = bits
        if round_index is not None:
            self.bits_by_round[round_index] = self.bits_by_round.get(round_index, 0) + bits

    def record_delivery(self) -> None:
        self.messages_delivered += 1


class Simulator(PartyRuntime, ExecutionBackend):
    """Discrete-event simulator: one scheduler slot per simulated instant.

    Events are message deliveries and local timers.  Parties share a global
    simulated clock (the paper's synchronous model assumes synchronised
    clocks; in the asynchronous model only message delays change).

    Events wait in an :class:`~repro.sim.event_queue.EventQueue` under
    the key ``(time, priority)``, deliveries before timers at one timestamp
    and first queued, first served within a key.  The drawn delivery times
    alone decide what shares a key: on a synchronous network without jitter
    a whole tick -- every party's copies, self-deliveries and round timers --
    costs the heap two or three keys; where every delay is drawn apart each
    event is queued bare under a key of its own.  :meth:`step` handles one
    event per call and looks the next one up afresh, so ``until``,
    ``max_events`` and a crash take effect between any two events of an
    instant.  :meth:`run_until` loops with the collector's full passes held
    off (:func:`~repro.sim.event_queue.full_collections_deferred`).

    ``faults`` is a :class:`~repro.faults.plan.FaultPlan`: its extra latency
    is added at dispatch, and its :class:`~repro.faults.plan.FaultGate`
    applies the delivery contract as each message is handed out.

    This is the only scheduler and the ``"sim"`` execution backend:
    :meth:`run` instantiates a protocol at every party and drives it.  The
    :class:`~repro.runtime.asyncio_backend.AsyncioBackend` is this class
    paced by the wall clock, optionally over sockets.  Protocols see only
    the :class:`~repro.sim.api.PartyRuntime` interface.
    """

    def __init__(
        self,
        n: int,
        network: Optional[NetworkModel] = None,
        field: Optional[GF] = None,
        seed: int = 0,
        corrupt: Optional[Dict[int, Behavior]] = None,
        faults: Optional[FaultPlan] = None,
    ):
        self.n = n
        self.network = network or SynchronousNetwork()
        self.field = field or default_field()
        self.rng = random.Random(seed)
        self.corrupt_parties: Set[int] = set(corrupt or ())
        self.now = 0.0
        self.metrics = SimulationMetrics()
        self._queue = EventQueue()
        #: Crash-stopped party ids (see :meth:`crash_party`).
        self.crashed: Set[int] = set()
        self.crash_epochs: Dict[int, int] = {}
        self.faults = faults
        self._gate = None if faults is None else FaultGate(faults, self.crashed)
        self.parties: Dict[int, Party] = {i: Party(i, self) for i in range(1, n + 1)}
        self._events_processed = 0
        for party_id, behavior in (corrupt or {}).items():
            self.set_behavior(party_id, behavior)

    # -- configuration ------------------------------------------------------
    @property
    def delta(self) -> float:
        return self.network.delta

    def set_behavior(self, party_id: int, behavior) -> None:
        """Attach a Byzantine behaviour to a (corrupt) party."""
        self.corrupt_parties.add(party_id)
        self.parties[party_id].behavior = behavior

    # -- event submission ----------------------------------------------------
    def submit_message(self, sender: int, recipient: int, tag: str, payload: Any) -> None:
        """Send a message; the sender's behaviour may drop or rewrite it."""
        if sender in self.crashed:
            return
        sender_party = self.parties[sender]
        message = Message(sender, recipient, tag, payload, self.now, self.sized_bits(payload))
        for msg in sender_party.behavior.filter_send(sender_party, message):
            self.dispatch(msg)

    def dispatch(self, message: Message) -> None:
        """Put an already-filtered message on the wire (delays drawn here)."""
        self._queue.push(self.now + account_dispatch(self, message), MESSAGE, message)

    def schedule_timer(self, time: float, callback: Callable[[], None], owner: int = 0) -> None:
        now = self.now
        self._queue.push(
            time if time > now else now, TIMER, incarnation_timer(self, callback, owner)
        )

    # -- crash faults --------------------------------------------------------
    def crash_party(self, party_id: int, at_time: Optional[float] = None) -> None:
        """Crash-stop a party (now, or by a system timer at ``at_time``):
        no sends, no deliveries, no timers from then on.

        The fault contract's crash rules (:mod:`repro.faults.plan`): messages
        already on the wire *from* the crashed sender are still delivered;
        nothing is handed out *to* it.  Crash faults count as corruptions, so
        run predicates stop waiting for the party's output.
        """
        if at_time is not None:
            self.schedule_timer(at_time, lambda: self.crash_party(party_id))
            return
        if party_id in self.crashed:
            return
        self.crashed.add(party_id)
        self.corrupt_parties.add(party_id)
        self.crash_epochs[party_id] = self.crash_epochs.get(party_id, 0) + 1
        if self._gate is not None:
            self._gate.crash(party_id)

    def revive_party(self, party_id: int) -> Party:
        """Bring a crashed party back with a blank in-memory state.

        The old :class:`Party` object (instances, buffers) is discarded --
        rejoin logic is expected to restore state from a snapshot.  Timers
        scheduled before the crash stay inert (stale epoch).
        """
        if party_id not in self.crashed:
            raise ValueError(f"party {party_id} is not crashed")
        self.crashed.discard(party_id)
        self.corrupt_parties.discard(party_id)
        party = Party(party_id, self)
        self.parties[party_id] = party
        return party

    # -- execution -----------------------------------------------------------
    def step(self) -> bool:
        """Process one event; returns False when the queue is empty."""
        queue = self._queue
        if not queue.keys:
            return False
        time, is_timer, item = queue.pop()
        if time > self.now:
            self.now = time
        self._events_processed += 1
        if self._gate is not None:
            self._gated_step(is_timer, item)
        elif is_timer:
            item()
        elif item.recipient not in self.crashed:  # else discarded with its endpoint
            self.metrics.record_delivery()
            self.parties[item.recipient].deliver(item.sender, item.tag, item.payload)
        return True

    def _gated_step(self, is_timer: bool, item: Any) -> None:
        """:meth:`step` under a fault plan: the gate hands each message out,
        and what it still holds goes once the queue has drained -- on a
        synchronous network already once the instant's deliveries are over,
        before its timers, so a hold never outlives Δ."""
        if is_timer:
            item()
        else:
            for message in self._gate.admit(item):
                self._deliver(message)
        keys = self._queue.keys
        if not keys or (self.network.is_synchronous and keys[0] != (self.now, MESSAGE)):
            for message in self._gate.flush():
                self._deliver(message)

    def _deliver(self, message: Message) -> None:
        self.metrics.record_delivery()
        self.parties[message.recipient].deliver(message.sender, message.tag, message.payload)

    def run(
        self,
        factory: Callable[[Party], Any],
        max_time: Optional[float] = None,
        max_events: Optional[int] = None,
        wait_for_all_honest: bool = True,
        extra_predicate: Optional[Callable[[], bool]] = None,
    ) -> RunResult:
        """Instantiate, start and run the protocol to completion."""
        instances = self._instantiate(factory)
        done = self._done_predicate(instances, wait_for_all_honest, extra_predicate)
        self.run_until(done, max_time, max_events)
        return RunResult(self, instances)

    def run_until(
        self,
        until: Optional[Callable[[], bool]] = None,
        max_time: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Run until the predicate holds, the queue drains, or a limit hits."""
        pending = self._queue.keys
        with full_collections_deferred():
            while pending:
                if until is not None and until():
                    return
                if max_time is not None and pending[0][0] > max_time:
                    return
                if max_events is not None and self._events_processed >= max_events:
                    return
                self.step()

    @property
    def events_processed(self) -> int:
        return self._events_processed
