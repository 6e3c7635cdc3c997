"""Network models: synchronous, asynchronous, and adversarially-scheduled.

The paper's two settings are:

* **Synchronous** -- every sent message is delivered within a publicly-known
  bound Delta, and the adversary may choose any delay in (0, Delta].
* **Asynchronous** -- messages are delayed arbitrarily but finitely; the
  delivery schedule is chosen by a scheduler under adversarial control, and
  messages need not arrive in sending order.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional, Tuple

from repro.sim.messages import Message


class NetworkModel:
    """Base class: decides the delivery delay of each message."""

    #: Whether the model guarantees the synchronous Delta bound.
    is_synchronous: bool = False

    def __init__(self, delta: float = 1.0):
        self.delta = delta

    def delay(self, message: Message, rng: random.Random) -> float:
        """Return the delivery delay (> 0) for ``message``."""
        raise NotImplementedError


class SynchronousNetwork(NetworkModel):
    """Synchronous network: every message arrives within Delta.

    ``jitter`` < 1.0 makes delays uniform in [jitter*Delta, Delta]; the
    default delivers exactly at Delta (the adversary's worst case).
    """

    is_synchronous = True

    def __init__(self, delta: float = 1.0, jitter: float = 1.0):
        super().__init__(delta)
        if not 0.0 < jitter <= 1.0:
            raise ValueError("jitter must be in (0, 1]")
        self.jitter = jitter

    def delay(self, message: Message, rng: random.Random) -> float:
        if self.jitter >= 1.0:
            return self.delta
        low = self.jitter * self.delta
        return rng.uniform(low, self.delta)


class AsynchronousNetwork(NetworkModel):
    """Asynchronous network with random (finite) delays.

    Delays are exponential-ish draws in [min_delay, max_delay]; with
    max_delay far above Delta this exercises the protocols' eventual-delivery
    code paths.  ``delta`` is still carried so the parties' local timeouts
    (which are defined in terms of the *assumed* Delta) can be computed.
    """

    is_synchronous = False

    def __init__(
        self,
        delta: float = 1.0,
        min_delay: float = 0.1,
        max_delay: float = 25.0,
    ):
        super().__init__(delta)
        self.min_delay = min_delay
        self.max_delay = max_delay

    def delay(self, message: Message, rng: random.Random) -> float:
        span = self.max_delay - self.min_delay
        draw = rng.random()
        # Skew towards small delays but with a heavy-ish tail.
        return self.min_delay + span * (draw ** 3)


class AdversarialAsynchronousNetwork(AsynchronousNetwork):
    """Asynchronous network whose scheduler targets specific parties.

    Messages to/from parties in ``slow_parties`` are delayed by
    ``slow_delay`` (still finite, so eventual delivery holds); everything
    else is fast.  This models the worst-case scheduler the paper assumes
    (e.g. delaying a single honest party's messages to break a synchronous
    protocol run in an asynchronous network).  With ``slow_senders_only``,
    ``fast_delay=delta`` and ``slow_delay`` a multiple of Delta it is the
    synchronous network whose Delta bound is violated for the slow parties'
    outgoing messages only (the baseline-failure experiment E8).
    """

    def __init__(
        self,
        delta: float = 1.0,
        slow_parties: Optional[frozenset] = None,
        slow_delay: float = 100.0,
        fast_delay: float = 0.2,
        slow_senders_only: bool = False,
    ):
        super().__init__(delta, min_delay=fast_delay, max_delay=slow_delay)
        self.slow_parties = frozenset(slow_parties or ())
        self.slow_delay = slow_delay
        self.fast_delay = fast_delay
        self.slow_senders_only = slow_senders_only

    def delay(self, message: Message, rng: random.Random) -> float:
        if message.sender in self.slow_parties:
            return self.slow_delay
        if not self.slow_senders_only and message.recipient in self.slow_parties:
            return self.slow_delay
        return self.fast_delay
