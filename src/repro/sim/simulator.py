"""The discrete-event simulator driving all protocol executions."""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Optional, Set

from repro.field.gf import GF, default_field
from repro.runtime.api import PartyRuntime, account_dispatch, incarnation_timer
from repro.runtime.event_queue import MESSAGE, TIMER, EventQueue, full_collections_deferred
from repro.sim.messages import Message
from repro.sim.network import NetworkModel, SynchronousNetwork
from repro.sim.party import Party


class SimulationMetrics:
    """Counters for the communication-complexity experiments.

    ``honest_bits`` counts bits sent by honest parties over real channels
    (self-delivery is free), which is the unit the paper's complexity
    statements use.  ``bits_by_round`` buckets sent bits into synchronous
    rounds (send time divided by Delta) and ``max_message_bits`` tracks the
    largest single message, which is what the round-sharded preprocessing
    bounds.
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
        self.max_message_bits_by_round: Dict[int, int] = {}

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
            if bits > self.max_message_bits_by_round.get(round_index, 0):
                self.max_message_bits_by_round[round_index] = bits

    def record_delivery(self) -> None:
        self.messages_delivered += 1


class Simulator(PartyRuntime):
    """Discrete-event simulator: one scheduler slot per simulated instant.

    Events are message deliveries and local timers.  Parties share a global
    simulated clock (the paper's synchronous model assumes synchronised
    clocks; in the asynchronous model only message delays change).

    Events wait in an :class:`~repro.runtime.event_queue.EventQueue` under
    the key ``(time, priority)``, deliveries before timers at one timestamp
    and first queued, first served within a key.  The drawn delivery times
    alone decide what shares a key: on a synchronous network without jitter
    a whole tick -- every party's copies, self-deliveries and round timers --
    costs the heap two or three keys; where every delay is drawn apart each
    event is queued bare under a key of its own.  :meth:`step` handles one
    event per call and looks the next one up afresh, so ``until``,
    ``max_events`` and a crash take effect between any two events of an
    instant.  :meth:`run` loops with the collector's full passes held off
    (:func:`~repro.runtime.event_queue.full_collections_deferred`).

    The simulator is one implementation of the
    :class:`~repro.runtime.api.PartyRuntime` context API; protocols only see
    that interface, so the same code also runs under the concurrent
    :class:`~repro.runtime.asyncio_backend.AsyncioBackend`, whose
    virtual-clock loop drains the same queue class.
    """

    def __init__(
        self,
        n: int,
        network: Optional[NetworkModel] = None,
        field: Optional[GF] = None,
        seed: int = 0,
        corrupt_parties: Optional[Set[int]] = None,
    ):
        self.n = n
        self.network = network or SynchronousNetwork()
        self.field = field or default_field()
        self.rng = random.Random(seed)
        self.corrupt_parties: Set[int] = set(corrupt_parties or set())
        self.now = 0.0
        self.metrics = SimulationMetrics()
        self._queue = EventQueue()
        #: Crash-stopped party ids (see :meth:`crash_party`).
        self.crashed: Set[int] = set()
        self.crash_epochs: Dict[int, int] = {}
        self.parties: Dict[int, Party] = {i: Party(i, self) for i in range(1, n + 1)}
        self._events_processed = 0

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
    def crash_party(self, party_id: int) -> None:
        """Crash-stop a party: no sends, no deliveries, no timers from now on.

        Matches the transport-layer fault contract: messages already on the
        wire *from* the crashed sender are still delivered; messages held
        *for* it are discarded at their delivery time.  Crash faults count as
        corruptions, so run predicates stop waiting for the party's output.
        """
        if party_id in self.crashed:
            return
        self.crashed.add(party_id)
        self.corrupt_parties.add(party_id)
        self.crash_epochs[party_id] = self.crash_epochs.get(party_id, 0) + 1

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
        if is_timer:
            item()
        elif item.recipient not in self.crashed:  # else discarded with its endpoint
            self.metrics.record_delivery()
            self.parties[item.recipient].deliver(item.sender, item.tag, item.payload)
        return True

    def run(
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
