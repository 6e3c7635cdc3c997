"""Parties and the protocol-instance abstraction.

Every protocol from the paper is implemented as a :class:`ProtocolInstance`
state machine.  A party runs many instances concurrently (e.g. all the
``Pi_WPS^(j)`` and ``Pi_BA`` instances inside a VSS); instances are addressed
by hierarchical tags so that sub-protocol composition mirrors the paper's
"the parties participate in instance Pi^(j)" phrasing.  A logical ΠBC and a
ΠBA slot are records that their carrier or bank owns, not instances; all
three publish their output through one :class:`Outcome`.  A carrier is a :class:`Gathering`,
and a post (one message per peer per instant for its members) a :class:`Post`.

A party is execution-backend agnostic: everything it needs from its host --
channels, timers, the clock, the static execution parameters -- goes through
the :class:`~repro.sim.api.PartyRuntime` context API, implemented by
the discrete-event :class:`~repro.sim.simulator.Simulator` -- the one
scheduler, which the :class:`~repro.runtime.asyncio_backend.AsyncioBackend`
paces by the wall clock.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.api import PartyRuntime
    from repro.sim.adversary import Behavior


class Party:
    """One of the n parties P_1..P_n.

    Holds the protocol instances this party is running, provides the channel
    primitives (send / send_all), local timers, and the party's local
    randomness.
    """

    def __init__(self, party_id: int, runtime: "PartyRuntime", behavior: Optional["Behavior"] = None):
        from repro.sim.adversary import HonestBehavior

        self.id = party_id
        self.runtime = runtime
        self.behavior = behavior or HonestBehavior()
        self.rng = random.Random(runtime.rng.randrange(2 ** 62) ^ party_id)
        self.instances: Dict[str, ProtocolInstance] = {}
        self._buffered: Dict[str, List[tuple]] = {}

    # -- identity ----------------------------------------------------------
    @property
    def n(self) -> int:
        return self.runtime.n

    @property
    def now(self) -> float:
        return self.runtime.now

    @property
    def field(self):
        return self.runtime.field

    @property
    def delta(self) -> float:
        """The network's (assumed) synchronous delivery bound."""
        return self.runtime.delta

    def all_party_ids(self) -> List[int]:
        return list(range(1, self.runtime.n + 1))

    # -- channels ----------------------------------------------------------
    def send(self, recipient: int, tag: str, payload: Any) -> None:
        """Send ``payload`` to ``recipient`` over the private channel."""
        self.runtime.submit_message(self.id, recipient, tag, payload)

    def send_all(self, tag: str, payload: Any) -> None:
        """Send ``payload`` to every party (including self)."""
        self.runtime.fan_out(self.id, tag, payload)

    # -- timers ------------------------------------------------------------
    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute simulated (local) time ``time``."""
        self.runtime.schedule_timer(time, callback, owner=self.id)

    def schedule_after(self, delay: float, callback: Callable[[], None]) -> None:
        self.schedule_at(self.now + delay, callback)

    # -- instance management -------------------------------------------------
    def register_instance(self, instance: "ProtocolInstance") -> None:
        if instance.tag in self.instances:
            raise ValueError(f"duplicate protocol tag {instance.tag!r} at party {self.id}")
        self.instances[instance.tag] = instance
        buffered = self._buffered.pop(instance.tag, None)
        if buffered:
            # Replay buffered messages only after the current call stack (and
            # in particular the subclass constructor) has finished.
            def _replay() -> None:
                for sender, payload in buffered:
                    instance.receive(sender, payload)

            self.runtime.schedule_timer(self.runtime.now, _replay, owner=self.id)

    def get_instance(self, tag: str) -> Optional["ProtocolInstance"]:
        return self.instances.get(tag)

    def retire(self, stale: Callable[[str], bool]) -> None:
        """Forget every instance, and every buffered message, whose tag is ``stale``."""
        for table in (self.instances, self._buffered):
            for tag in [t for t in table if stale(t)]:
                del table[tag]

    def load(self) -> Tuple[int, int]:
        """(instances held, tags with buffered messages): what a long-lived host watches."""
        return len(self.instances), len(self._buffered)

    def deliver(self, sender: int, tag: str, payload: Any) -> None:
        """Deliver an incoming message to the instance addressed by ``tag``.

        Messages for instances that do not exist yet are buffered and
        replayed on registration (parties may create sub-protocol endpoints
        at different local times), unless the registered parent builds that
        child on first use (:meth:`ProtocolInstance.demand_child`) right now.
        """
        if self.behavior.drop_incoming(self, sender, tag, payload):
            return
        instance = self.instances.get(tag)
        if instance is None:
            parent_tag, _, name = tag.rpartition("/")
            parent = self.instances.get(parent_tag)
            if parent is not None:
                instance = parent.demand_child(name)
            if instance is None:
                self._buffered.setdefault(tag, []).append((sender, payload))
                return
        instance.receive(sender, payload)

    def __repr__(self) -> str:
        return f"Party({self.id})"


class Outcome:
    """What a protocol instance, a logical ΠBC (an entry of its carrier) or a
    ΠBA slot (of its bank) outputs at a party: the value, when, and who waits
    for it.  Completion callbacks fire exactly once."""

    def __init__(self, party: Party):
        self.party = party
        self.output: Any = None
        self.has_output = False
        self.output_time: Optional[float] = None
        self._output_callbacks: List[Callable[[Any], None]] = []

    @property
    def n(self) -> int:
        return self.party.n

    @property
    def me(self) -> int:
        return self.party.id

    @property
    def now(self) -> float:
        return self.party.now

    def on_output(self, callback: Callable[[Any], None]) -> None:
        """Register a callback fired when this instance first outputs."""
        if self.has_output:
            callback(self.output)
        else:
            self._output_callbacks.append(callback)

    def set_output(self, value: Any) -> None:
        """Publish the protocol output (only the first call has effect)."""
        if self.has_output:
            return
        self.output = value
        self.has_output = True
        self.output_time = self.now
        callbacks, self._output_callbacks = self._output_callbacks, []
        for callback in callbacks:
            callback(value)

    def update_output(self, value: Any) -> None:
        """Switch an already-published output (used by fallback modes).

        Pi_BC allows parties that output bottom through the regular mode to
        later switch to the sender's value through the fallback mode; this
        helper records the switch without re-firing completion callbacks
        already delivered (new callbacks see the new value).
        """
        self.output = value
        if not self.has_output:
            self.has_output = True
            self.output_time = self.now
        callbacks, self._output_callbacks = self._output_callbacks, []
        for callback in callbacks:
            callback(value)


class ProtocolInstance(Outcome):
    """Base class for all protocol state machines.

    Subclasses implement :meth:`start` and :meth:`receive`, and publish their
    output through :meth:`set_output`.  Protocols keep running after an output
    (the paper's protocols have no termination criteria of their own), but
    the simulation harness normally stops once every honest party has one.
    """

    def __init__(self, party: Party, tag: str):
        super().__init__(party)
        self.tag = tag
        party.register_instance(self)

    # -- conveniences -------------------------------------------------------
    @property
    def field(self):
        return self.party.field

    @property
    def rng(self) -> random.Random:
        return self.party.rng

    def send(self, recipient: int, payload: Any) -> None:
        self.party.send(recipient, self.tag, payload)

    def send_all(self, payload: Any) -> None:
        self.party.send_all(self.tag, payload)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        self.party.schedule_at(time, callback)

    def schedule_after(self, delay: float, callback: Callable[[], None]) -> None:
        self.party.schedule_after(delay, callback)

    def subtag(self, name: str) -> str:
        return f"{self.tag}/{name}"

    def spawn(self, cls, name: str, *args, **kwargs) -> "ProtocolInstance":
        """Create a child protocol instance under this instance's tag."""
        return cls(self.party, self.subtag(name), *args, **kwargs)

    def demand_child(self, name: str) -> Optional["ProtocolInstance"]:
        """A message came for ``subtag(name)``, which does not exist.  An owner of
        children built on first use returns that child -- started, hooked up, its
        tag exactly that -- or ``None`` for a name it would never build, or cannot
        build yet (the message is buffered; :meth:`demand_buffered` picks it up)."""
        return None

    def demand_buffered(self, names: Iterable[str]) -> None:
        """From now on :meth:`demand_child` builds ``names``: build those with
        messages already waiting (they are replayed as on any registration)."""
        buffered = self.party._buffered
        for name in names if buffered else ():
            if self.subtag(name) in buffered:
                self.demand_child(name)

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Begin executing the protocol (send first messages, set timers)."""

    def receive(self, sender: int, payload: Any) -> None:
        """Handle an incoming message for this instance."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(party={self.party.id}, tag={self.tag!r})"


class CarrierError(RuntimeError):
    """A member cannot join its :class:`Gathering`: it froze, or runs on other terms."""


class Gathering(ProtocolInstance):
    """A sibling group started at one instant, run as one instance whose
    messages are positional over its members (the carriers of
    :mod:`repro.broadcast.bc` and :mod:`repro.ba.aba`, the posts of
    :mod:`repro.sharing.wps` and :mod:`repro.triples.reconstruction`).
    Members :meth:`join` until the freeze, the one timer :meth:`at` sets,
    which sorts them by tag into :attr:`position`, runs the :meth:`at_freeze`
    callbacks (inputs due then) and hands the messages held so far to
    :meth:`take`, the gathering's own total parser.

    Same instants.  The freeze instant is commonly known (an anchor, a launch
    instant, a root's start cascade), so honest parties that built the same
    members give them the same positions; a later member would not, and raises
    :class:`CarrierError`.  A message that comes before the freeze (a peer's
    clock ahead) is held until it, as ``Party.deliver`` holds one for a tag
    nobody has registered: no member sees it before it exists here."""

    def __init__(self, party: Party, tag: str):
        super().__init__(party, tag)
        #: The members; sorted by tag, hence positional, once frozen.
        self.entries: List[Any] = []
        self.position: Optional[Dict[str, int]] = None
        self._held: List[Tuple[int, Any]] = []
        self._at_freeze: Optional[List[Callable[[], None]]] = []

    @classmethod
    def at(cls, party: Party, tag: str, instant: float, *args: Any) -> "Gathering":
        """Gathering ``tag``: the first caller builds, freezes at ``instant``, starts."""
        gathering = party.get_instance(tag)
        if gathering is None:
            gathering = cls(party, tag, *args)
            gathering.schedule_at(instant, gathering._freeze)
            gathering.start()
        return gathering

    def join(self, *members: Any) -> None:
        """``members`` (anything with a ``tag``) take positions at the freeze."""
        if self.position is not None:
            raise CarrierError(f"{members[0].tag} joins {self.tag} after its freeze")
        self.entries += members

    def at_freeze(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` at the freeze, once the positions are set."""
        if self._at_freeze is None:
            raise CarrierError(f"{callback!r} is due at {self.tag}'s freeze, which is over")
        self._at_freeze.append(callback)

    def _freeze(self) -> None:
        self.entries.sort(key=lambda member: member.tag)
        self.position = {member.tag: p for p, member in enumerate(self.entries)}
        for callback in self._at_freeze:
            callback()
        self._at_freeze = None
        held, self._held = self._held, []
        for sender, payload in held:
            self.take(sender, payload)

    def receive(self, sender: int, payload: Any) -> None:
        if self.position is None:
            self._held.append((sender, payload))
        else:
            self.take(sender, payload)

    def take(self, sender: int, payload: Any) -> None:
        """A peer's message, from the freeze on: the gathering's total parser."""


class Post(Gathering):
    """A gathering whose members' words to one peer at one instant leave as one
    message (the sharing post of :mod:`repro.sharing.wps`, the opening post of
    :mod:`repro.triples.reconstruction`): a tuple of lines ``(kind, vector)``,
    one per kind said, each vector positional over the members with ``None``
    where a member said nothing.  The flush is a timer at the instant of the
    words; a member's second word of one kind to one peer in one instant
    flushes the first, a message more, never a merge."""

    def __init__(self, party: Party, tag: str):
        super().__init__(party, tag)
        #: recipient -> kind -> member tag -> what this instant owes it.
        self._pending: Dict[int, Dict[str, Dict[str, Any]]] = {}
        self._flush_queued = False

    def put(self, recipient: int, tag: str, payload: Tuple[str, Any]) -> None:
        """Member ``tag`` says ``payload`` = ``(kind, value)`` to ``recipient``."""
        kind, value = payload
        if tag in self._pending.get(recipient, {}).get(kind, ()):
            self._flush()  # its second word this instant: the first goes first
        self._pending.setdefault(recipient, {}).setdefault(kind, {})[tag] = value
        if not self._flush_queued:
            self._flush_queued = True
            self.schedule_at(self.now, self._flush)

    def _flush(self) -> None:
        pending, self._pending = self._pending, {}
        self._flush_queued = False
        for recipient, owed in pending.items():
            self.send(recipient, tuple(
                (kind, tuple(values.get(member.tag) for member in self.entries))
                for kind, values in owed.items()))

    def take(self, sender: int, payload: Any) -> None:
        """Total: a tuple of ``(str, tuple of the width)`` lines, or nothing."""
        if type(payload) is not tuple or not all(
            type(line) is tuple and len(line) == 2 and type(line[0]) is str
            and type(line[1]) is tuple and len(line[1]) == len(self.entries)
            for line in payload
        ):
            return
        for kind, vector in payload:
            for member, value in zip(self.entries, vector):
                if value is not None:
                    self.hand(member, sender, kind, value)

    def hand(self, member: Any, sender: int, kind: str, value: Any) -> None:
        """An entry of a peer's message: ``member``'s word ``(kind, value)``."""
