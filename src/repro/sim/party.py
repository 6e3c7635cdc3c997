"""Parties and the protocol-instance abstraction.

Every protocol from the paper is implemented as a :class:`ProtocolInstance`
state machine.  A party runs many instances concurrently (e.g. all the
``Pi_WPS^(j)`` and ``Pi_BA`` instances inside a VSS); instances are addressed
by hierarchical tags so that sub-protocol composition mirrors the paper's
"the parties participate in instance Pi^(j)" phrasing.

A party is execution-backend agnostic: everything it needs from its host --
channels, timers, the clock, the static execution parameters -- goes through
the :class:`~repro.runtime.api.PartyRuntime` context API, implemented both
by the discrete-event :class:`~repro.sim.simulator.Simulator` and by the
concurrent :class:`~repro.runtime.asyncio_backend.AsyncioBackend`.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.api import PartyRuntime
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


class ProtocolInstance:
    """Base class for all protocol state machines.

    Subclasses implement :meth:`start` and :meth:`receive`.  Outputs are
    published via :meth:`set_output`; completion callbacks fire exactly once.
    Protocols keep running after producing an output (the paper's protocols
    have no termination criteria of their own), but the simulation harness
    normally stops once every honest party has an output.
    """

    def __init__(self, party: Party, tag: str):
        self.party = party
        self.tag = tag
        self.output: Any = None
        self.has_output = False
        self.output_time: Optional[float] = None
        self._output_callbacks: List[Callable[[Any], None]] = []
        party.register_instance(self)

    # -- conveniences -------------------------------------------------------
    @property
    def field(self):
        return self.party.field

    @property
    def n(self) -> int:
        return self.party.n

    @property
    def me(self) -> int:
        return self.party.id

    @property
    def now(self) -> float:
        return self.party.now

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

    def __repr__(self) -> str:
        return f"{type(self).__name__}(party={self.party.id}, tag={self.tag!r})"
