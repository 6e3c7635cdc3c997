"""The discrete-event simulator driving all protocol executions."""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Any, Callable, Dict, List, Optional, Set

from repro.field.gf import GF, default_field
from repro.runtime.api import PartyRuntime, account_dispatch, incarnation_timer
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
    """Priority-queue discrete-event simulator.

    Events are message deliveries and local timers.  Parties share a global
    simulated clock (the paper's synchronous model assumes synchronised
    clocks; in the asynchronous model only message delays change).

    A heap entry is ``(time, priority, seq, item)``.  Messages have priority
    0 and timers priority 1, so at equal timestamps deliveries are processed
    before timers: a timer that "evaluates at time T" sees every message
    that arrived "within time T", matching the paper's inclusive timing
    statements.  A timer's item is its callback; a message entry's item is
    the ``Message``, or -- for the copies of one fan-out that are due at the
    same instant (all of them on a synchronous network without jitter) -- the
    list of those messages, last first, which :meth:`step` drains one
    delivery per call.  The delivery order is the one a heap entry per
    message gives, because nothing can sort between two such copies.

    The simulator is one implementation of the
    :class:`~repro.runtime.api.PartyRuntime` context API; protocols only see
    that interface, so the same code also runs under the concurrent
    :class:`~repro.runtime.asyncio_backend.AsyncioBackend`.
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
        self._event_heap: List[tuple] = []
        self._counter = itertools.count()
        #: True inside :meth:`fan_out`, where ``_run`` collects the copies
        #: dispatched so far that are due at one instant and not yet on the
        #: heap, as ``[time, seq, message, ...]``.
        self._fanning_out = False
        self._run: Optional[list] = None
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

    def fan_out(self, sender: int, tag: str, payload: Any) -> None:
        """Send to every party; copies due at the same instant share a heap entry."""
        self._fanning_out = True
        try:
            super().fan_out(sender, tag, payload)
        finally:
            self._fanning_out = False
            self._queue_run()

    def dispatch(self, message: Message) -> None:
        """Put an already-filtered message on the wire (delays drawn here)."""
        deliver_at = self.now + account_dispatch(self, message)
        remote = message.sender != message.recipient
        run = self._run
        if run is not None and run[0] == deliver_at:
            if remote:
                run.append(message)
                return
            # A self-delivery due at the run's instant sorts after the run's
            # members so far and before any later copy.
            self._queue_run()
        elif remote and self._fanning_out:
            # The run keeps the place in the order its first member takes now.
            self._queue_run()
            self._run = [deliver_at, next(self._counter), message]
            return
        # A message of its own: sent outside a fan-out, or a self-delivery
        # (local, free, due 1e-9 from now: it leaves a run for later open).
        heapq.heappush(self._event_heap, (deliver_at, 0, next(self._counter), message))

    def _queue_run(self) -> None:
        """Put the open run of fan-out copies, if any, on the heap."""
        run = self._run
        if run is None:
            return
        self._run = None
        if len(run) == 3:
            item = run[2]
        else:
            item = run[:1:-1]  # the members, last first: step() pops from the end
        heapq.heappush(self._event_heap, (run[0], 0, run[1], item))

    def schedule_timer(self, time: float, callback: Callable[[], None], owner: int = 0) -> None:
        now = self.now
        heapq.heappush(
            self._event_heap,
            (
                time if time > now else now,
                1,
                next(self._counter),
                incarnation_timer(self, callback, owner),
            ),
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
        heap = self._event_heap
        if not heap:
            return False
        time, is_timer, _seq, item = heap[0]
        if time > self.now:
            self.now = time
        self._events_processed += 1
        if is_timer:
            heapq.heappop(heap)
            item()
            return True
        if type(item) is list:
            # Copies of one fan-out: one per call, the entry goes with the last.
            message = item.pop()
            if not item:
                heapq.heappop(heap)
        else:
            heapq.heappop(heap)
            message = item
        if message.recipient in self.crashed:
            return True  # held for a crashed endpoint: discarded
        self.metrics.record_delivery()
        self.parties[message.recipient].deliver(message.sender, message.tag, message.payload)
        return True

    def run(
        self,
        until: Optional[Callable[[], bool]] = None,
        max_time: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Run until the predicate holds, the queue drains, or a limit hits."""
        heap = self._event_heap
        while heap:
            if until is not None and until():
                return
            if max_time is not None and heap[0][0] > max_time:
                return
            if max_events is not None and self._events_processed >= max_events:
                return
            self.step()

    @property
    def events_processed(self) -> int:
        return self._events_processed
