"""Byzantine behaviours for corrupt parties.

The adversary is static: it picks the corrupt set before the execution.  A
corrupt party runs the honest protocol code, but its :class:`Behavior` can
drop, rewrite, duplicate or selectively deliver its outgoing messages, drop
incoming ones, or perturb the values it sends -- which covers crash faults,
equivocation, wrong shares and dealer misbehaviour.  Protocol-specific
attacks (e.g. a dealer distributing an inconsistent bivariate polynomial)
are built from these primitives in the tests and benchmarks.

Randomized behaviours draw exclusively from an *injected*
:class:`random.Random` (never the module-global ``random`` state), so every
adversarial scenario is reproducible from its seed alone -- the scenario
matrix in ``tests/test_scenario_matrix.py`` relies on this.
"""

from __future__ import annotations

import random
from typing import Any, Callable, List, Optional, Sequence

from repro.field.gf import FieldElement
from repro.field.polynomial import Polynomial
from repro.sim.messages import Message
from repro.sim.party import Party


class Behavior:
    """Base behaviour: decides what a party actually puts on the wire."""

    def filter_send(self, party: Party, message: Message) -> List[Message]:
        """Return the messages actually sent (possibly none or rewritten)."""
        return [message]

    def drop_incoming(self, party: Party, sender: int, tag: str, payload: Any) -> bool:
        """Return True to silently discard an incoming message."""
        return False


class HonestBehavior(Behavior):
    """Follows the protocol exactly."""


class CrashBehavior(Behavior):
    """Crash-stop fault: sends nothing (optionally from a given time on)."""

    def __init__(self, crash_time: float = 0.0):
        self.crash_time = crash_time

    def filter_send(self, party: Party, message: Message) -> List[Message]:
        if party.now >= self.crash_time:
            return []
        return [message]


class SilentBehavior(Behavior):
    """Stays silent only for protocol tags matching a predicate.

    Models, e.g., a corrupt dealer that never invokes its VSS instance while
    still participating in everything else.
    """

    def __init__(self, tag_predicate: Callable[[str], bool]):
        self.tag_predicate = tag_predicate

    def filter_send(self, party: Party, message: Message) -> List[Message]:
        if self.tag_predicate(message.tag):
            return []
        return [message]


class DelayBehavior(Behavior):
    """Withholds matching messages until a fixed extra delay has passed.

    The messages are still (eventually) sent, so asynchronous liveness is
    preserved; used to model slow-but-honest-looking corrupt parties.
    """

    def __init__(self, extra_delay: float, tag_predicate: Optional[Callable[[str], bool]] = None):
        self.extra_delay = extra_delay
        self.tag_predicate = tag_predicate or (lambda tag: True)

    def filter_send(self, party: Party, message: Message) -> List[Message]:
        if not self.tag_predicate(message.tag):
            return [message]
        delayed = message
        party.runtime.schedule_timer(
            party.now + self.extra_delay,
            lambda m=delayed: party.runtime.dispatch(m),
        )
        return []


class WrongValueBehavior(Behavior):
    """Perturbs field elements in outgoing payloads for matching tags.

    Turns correct shares/points into incorrect ones, modelling a party that
    lies during pair-wise consistency checks or reconstruction.
    """

    def __init__(
        self,
        tag_predicate: Optional[Callable[[str], bool]] = None,
        target_recipients: Optional[Sequence[int]] = None,
        offset: int = 1,
    ):
        self.tag_predicate = tag_predicate or (lambda tag: True)
        self.target_recipients = set(target_recipients) if target_recipients else None
        self.offset = offset

    def _perturb(self, value: Any) -> Any:
        # Imported lazily: the broadcast/sharing packages depend on sim.party.
        from repro.broadcast.acast import PackedFieldVector
        from repro.broadcast.bc import Bundle
        from repro.sharing.wps import PackedPolynomialRows

        if isinstance(value, FieldElement):
            return value + self.offset
        if isinstance(value, Polynomial):
            return Polynomial(value.field, [c + self.offset for c in value.coeffs])
        if isinstance(value, PackedFieldVector):
            # Packed broadcast vectors are perturbed element-wise, so
            # equivocation attacks bite on packed payloads too.
            return PackedFieldVector(
                value.field, (value.as_array() + self.offset).values, _normalized=True
            )
        if isinstance(value, PackedPolynomialRows):
            # Packed dealer rows perturb per coefficient, exactly like the
            # unpacked list of Polynomial rows.
            return PackedPolynomialRows(
                self._perturb(value.vector), value.lengths
            )
        if isinstance(value, Bundle):
            # Entry by entry, like the tuple it was: a NOK's value is perturbed.
            return Bundle(self._perturb(value.entries), value.n)
        if isinstance(value, tuple):
            return tuple(self._perturb(v) for v in value)
        if isinstance(value, list):
            return [self._perturb(v) for v in value]
        return value

    def filter_send(self, party: Party, message: Message) -> List[Message]:
        if not self.tag_predicate(message.tag):
            return [message]
        if self.target_recipients is not None and message.recipient not in self.target_recipients:
            return [message]
        corrupted = Message(
            message.sender,
            message.recipient,
            message.tag,
            self._perturb(message.payload),
            message.send_time,
        )
        return [corrupted]


class EquivocatingBehavior(Behavior):
    """Sends different values to different recipients for matching tags.

    Recipients in ``group_b`` receive a perturbed payload; everyone else the
    original.  Models an equivocating Acast sender or broadcaster.
    """

    def __init__(
        self,
        group_b: Sequence[int],
        tag_predicate: Optional[Callable[[str], bool]] = None,
        offset: int = 1,
    ):
        self.group_b = set(group_b)
        self.tag_predicate = tag_predicate or (lambda tag: True)
        self._perturber = WrongValueBehavior(offset=offset)

    def filter_send(self, party: Party, message: Message) -> List[Message]:
        if not self.tag_predicate(message.tag) or message.recipient not in self.group_b:
            return [message]
        corrupted = Message(
            message.sender,
            message.recipient,
            message.tag,
            self._perturber._perturb(message.payload),
            message.send_time,
        )
        return [corrupted]


class RandomDropBehavior(Behavior):
    """Drops each matching outgoing message independently with probability p.

    Models a lossy / omission-faulty corrupt party.  The draws come from the
    *injected* ``rng`` (a :class:`random.Random`), never from the
    module-global ``random`` state, so a scenario seeded with
    ``RandomDropBehavior(0.3, random.Random(seed))`` replays identically
    across runs.
    """

    def __init__(
        self,
        drop_probability: float,
        rng: random.Random,
        tag_predicate: Optional[Callable[[str], bool]] = None,
    ):
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError("drop_probability must be in [0, 1]")
        if not isinstance(rng, random.Random):
            raise TypeError(
                "RandomDropBehavior requires an injected random.Random instance "
                "(module-global random would make scenarios unreproducible)"
            )
        self.drop_probability = drop_probability
        self.rng = rng
        self.tag_predicate = tag_predicate or (lambda tag: True)

    def filter_send(self, party: Party, message: Message) -> List[Message]:
        if not self.tag_predicate(message.tag):
            return [message]
        if self.rng.random() < self.drop_probability:
            return []
        return [message]


class CompositeBehavior(Behavior):
    """Applies several behaviours in sequence (output of one feeds the next)."""

    def __init__(self, behaviors: Sequence[Behavior]):
        self.behaviors = list(behaviors)

    def filter_send(self, party: Party, message: Message) -> List[Message]:
        messages = [message]
        for behavior in self.behaviors:
            next_messages: List[Message] = []
            for msg in messages:
                next_messages.extend(behavior.filter_send(party, msg))
            messages = next_messages
        return messages

    def drop_incoming(self, party: Party, sender: int, tag: str, payload: Any) -> bool:
        return any(b.drop_incoming(party, sender, tag, payload) for b in self.behaviors)
