"""Transports: the delivery fabric of the asyncio party runtime.

A :class:`Transport` owns one inbox per party and moves messages that are
due into them (the backend's scheduler hands one over at its nominal
instant).  The interface is socket-shaped -- ``open`` / ``deliver`` /
``crash`` / ``close`` with per-party queues -- so the real-socket
:class:`~repro.runtime.tcp_transport.TcpTransport` replaces the in-process
queue pairs without touching protocol logic; a socket puts a message on the
wire when it is sent (``send``, with its ``due``), and the receiving side
hands it to ``on_arrival`` for its scheduler to queue at ``due``.

Transport-level faults (crash-stop of a party's endpoint, lost, duplicated
and reordered deliveries) are enforced here too: they model the *network's*
misbehaviour as opposed to the Byzantine :class:`~repro.sim.adversary.Behavior`
hooks, which model a corrupt party's.  The one injector is a
:class:`~repro.faults.plan.FaultPlan` passed as ``faults=``: for every
non-self handoff the transport numbers the message on its ``(sender,
recipient)`` channel and asks ``faults.decide(sender, recipient, seq,
can_hold=, send_time=)`` for one of the four decisions below.  The plan's
answer is a pure hash of ``(seed, sender, recipient, seq)``, so two transports
fed the same per-channel sequence fault the same messages however the global
delivery order interleaves.

Fault-delivery semantics (the contract both transports enforce):

* **Crash-stop.**  A crashed party neither sends nor receives *from the
  crash on*: new sends are blocked at submission
  (``PartyRuntime.submit_message``) and nothing is enqueued to a crashed
  recipient.  Messages the sender handed to the transport **before** its
  crash are in flight on the network and are still delivered -- a real
  network does not recall packets -- and this holds on every path: regular
  delivery, the release of a reorder-held message, and
  :meth:`Transport.flush_reordered`.  A message held *for* a crashed
  recipient is discarded with the rest of its inbox.
* **Reordering (adjacent swap).**  A ``hold`` decision parks the message
  until the **next delivery attempt to the same recipient** -- whatever that
  attempt is.  The held message is released behind a delivered message,
  after a dropped one, and alongside a self-delivery alike, so a hold can
  never silently become an unbounded one; at most one message per recipient
  is held at a time.
* **Duplication.**  The duplicate is enqueued immediately after the
  original (protocols must be idempotent).
* **Drops** lose the message outright; dropping honest messages violates
  eventual delivery, so tests using drops must not expect liveness.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

if TYPE_CHECKING:  # plan.py imports the decision strings below
    from repro.faults.plan import FaultPlan

#: Fault decisions returned by ``decide``: deliver the message, deliver it
#: twice, park it until the next delivery attempt to the recipient, or lose
#: it.  Plain strings keep the decision log printable and comparable.
DELIVER, DUPLICATE, HOLD, DROP = "deliver", "duplicate", "hold", "drop"


class Transport:
    """Base transport: per-party inboxes plus endpoint lifecycle."""

    #: Whether every message goes through :meth:`deliver` at its due instant
    #: (in-process; the virtual clock requires it), not :meth:`send` (sockets).
    synchronous_delivery = True

    #: Socket transports: ``on_arrival(message, due)`` takes what comes off
    #: the wire (the backend's scheduler); left ``None``, the inbox does.
    on_arrival = None

    #: The injected :class:`~repro.faults.plan.FaultPlan`, if any.
    faults: Optional[FaultPlan] = None

    def open(self, party_ids: Sequence[int]) -> None:
        """Create the endpoint for every party (called inside the loop).

        May return an awaitable (the backend awaits it), so socket
        transports can bind listeners asynchronously.
        """
        raise NotImplementedError

    def inbox(self, party_id: int):
        """The party's queue of ``(message, handled)`` pairs."""
        raise NotImplementedError

    def deliver(self, message) -> List[Tuple[object, asyncio.Event]]:
        """Hand over a message that is due now; returns the (message,
        handled-event) pairs enqueued synchronously (possibly none -- a
        crashed endpoint or a fault -- or several -- duplication, a released
        held message).  Socket transports take only self-deliveries here."""
        raise NotImplementedError

    def send(self, envelope: Sequence[Tuple[object, float]]) -> None:
        """Put ``(message, due)`` pairs on the wire now, in emission order
        (socket transports: those with ``synchronous_delivery`` False)."""
        raise NotImplementedError

    def crash(self, party_id: int) -> None:
        """Crash-stop a party's endpoint: no further deliveries to it.

        In-flight messages *from* the crashed party (handed to the transport
        before the crash) are still delivered -- see the module docstring.
        """
        raise NotImplementedError

    @property
    def crashed(self) -> Set[int]:
        raise NotImplementedError

    def revive(self, party_id: int) -> None:
        """Re-open a crashed endpoint so the party can receive again.

        Everything that was discarded while crashed stays lost (crash-stop
        semantics); rejoin protocols are expected to restore state from a
        snapshot, not from the transport.  Optional: transports that cannot
        re-open an endpoint keep the default and rejoin is unsupported there.
        """
        raise NotImplementedError(f"{type(self).__name__} does not support revive")

    def flush_reordered(self) -> List[Tuple[object, asyncio.Event]]:
        """Release any held-back (reordered) messages; returns the pairs."""
        return []

    def quiescent(self) -> bool:
        """Whether nothing more can come in: no delivery is in flight inside
        the transport itself, and no peer process could still send.

        The in-process transport enqueues synchronously, so it is always
        quiescent between ``deliver`` calls; socket transports report frames
        queued or written but not yet parsed.
        """
        return True

    def in_flight(self) -> int:
        """Messages this transport is carrying to its own process's parties
        (a socket transport serving every party: frames not yet read back)."""
        return 0

    def close(self) -> None:
        """Tear down every endpoint."""


class InProcessTransport(Transport):
    """Queue-pair transport: one ``asyncio.Queue`` inbox per party.

    The production-shaped default for :class:`AsyncioBackend`.  Each inbox
    item is ``(message, handled)`` where ``handled`` is an ``asyncio.Event``
    set once the message has been processed.  The backend's scheduler pops
    each just-enqueued pair back off the inbox and handles it inline, on
    either clock: execution is totally ordered by nominal time.

    ``faults`` is a :class:`~repro.faults.plan.FaultPlan`; the crash/reorder
    delivery semantics are the module-docstring contract.
    """

    def __init__(self, faults: Optional[FaultPlan] = None):
        self.faults = faults
        self._inboxes: Dict[int, asyncio.Queue] = {}
        self._crashed: Set[int] = set()
        #: recipient -> message held back by a reorder fault.
        self._held: Dict[int, object] = {}
        #: (sender, recipient) -> next handoff sequence number (fault keys).
        self._seq: Dict[Tuple[int, int], int] = {}

    def open(self, party_ids: Sequence[int]) -> None:
        self._inboxes = {pid: asyncio.Queue() for pid in party_ids}
        self._crashed = set()
        self._held = {}
        self._seq = {}

    def inbox(self, party_id: int) -> asyncio.Queue:
        return self._inboxes[party_id]

    @property
    def crashed(self) -> Set[int]:
        return self._crashed

    def crash(self, party_id: int) -> None:
        self._crashed.add(party_id)
        # The crashed party receives nothing from the crash on, including a
        # message held *for* it.  (Held messages *from* it are in flight and
        # stay deliverable -- keyed by their recipient, they are unaffected.)
        self._held.pop(party_id, None)

    def revive(self, party_id: int) -> None:
        if party_id not in self._crashed:
            raise ValueError(f"party {party_id} is not crashed")
        self._crashed.discard(party_id)
        # Drain anything enqueued before the crash was processed: the party
        # was down, so those deliveries are lost.
        inbox = self._inboxes.get(party_id)
        while inbox is not None and not inbox.empty():
            _message, handled = inbox.get_nowait()
            handled.set()

    def _next_seq(self, sender: int, recipient: int) -> int:
        key = (sender, recipient)
        seq = self._seq.get(key, 0)
        self._seq[key] = seq + 1
        return seq

    def _enqueue(self, message) -> Tuple[object, asyncio.Event]:
        handled = asyncio.Event()
        self._inboxes[message.recipient].put_nowait((message, handled))
        return (message, handled)

    def _release_held(self, recipient: int, delivered: List) -> None:
        """Release a held message behind the current delivery attempt.

        Called on *every* attempt to the recipient -- delivered, dropped, or
        a self-delivery -- so the adjacent-swap hold is bounded by the very
        next attempt and can never strand the held message.
        """
        held = self._held.pop(recipient, None)
        if held is not None:
            delivered.append(self._enqueue(held))

    def deliver(self, message) -> List[Tuple[object, asyncio.Event]]:
        recipient = message.recipient
        if recipient in self._crashed:
            return []
        # A crashed *sender*'s message reaching this point was handed to the
        # transport before the crash (submit_message blocks later sends): it
        # is in flight and is delivered, matching flush_reordered.
        delivered: List[Tuple[object, asyncio.Event]] = []
        faults = self.faults
        if faults is not None and message.sender != recipient:
            seq = self._next_seq(message.sender, recipient)
            decision = faults.decide(
                message.sender,
                recipient,
                seq,
                can_hold=recipient not in self._held,
                send_time=message.send_time,
            )
            if decision == HOLD:
                # Park it; it jumps the queue behind the next delivery
                # attempt to the same recipient (adjacent swap).
                self._held[recipient] = message
                return delivered
            if decision != DROP:
                delivered.append(self._enqueue(message))
                if decision == DUPLICATE:
                    delivered.append(self._enqueue(message))
            self._release_held(recipient, delivered)
            return delivered
        delivered.append(self._enqueue(message))
        self._release_held(recipient, delivered)
        return delivered

    def flush_reordered(self) -> List[Tuple[object, asyncio.Event]]:
        released = []
        for recipient in sorted(self._held):
            if recipient in self._crashed:
                continue
            released.append(self._enqueue(self._held[recipient]))
        self._held = {}
        return released

    def close(self) -> None:
        self._inboxes = {}
        self._held = {}
        self._seq = {}
