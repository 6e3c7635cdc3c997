"""The scheduler queue of the simulated-time runtimes: one slot per instant.

Shared, with the collector setting of the loops that drain it, by the
discrete-event :class:`~repro.sim.simulator.Simulator` and the virtual-clock
loop of :class:`~repro.runtime.asyncio_backend.AsyncioBackend`, so the two
cannot order or count events differently.  Standard library only: this module
sits below both halves of the ``repro.sim`` <-> ``repro.runtime`` cycle.
"""

from __future__ import annotations

import gc
from collections import deque
from contextlib import contextmanager
from heapq import heappop, heappush
from typing import Any, Dict, Iterator, List, Tuple

#: Priorities of the two kinds of event.  At one timestamp deliveries are
#: handed out before timers, so a timer that "evaluates at time T" sees every
#: message that arrived "within time T" (the paper's inclusive timing).
MESSAGE, TIMER = 0, 1


class EventQueue:
    """Events keyed by ``(time, priority)``, handed out in push order per key.

    The paper's protocols run in lockstep: the copies sent at one tick of a
    synchronous network, the self-deliveries and the round timers of that
    tick are each due at one instant.  So the heap orders the *distinct* keys
    only, and a dict maps each key to its slot: the bare event while the key
    holds one (every key, when an asynchronous network draws each delay
    apart), a ``deque`` from the second on.  Filled and drained first in,
    first out, a slot gives the order of one heap entry ``(time, priority,
    seq, event)`` per event, and lets go of an event when it is handed out,
    not when the slot is used up.  Events must not be ``None`` or a ``deque``.
    """

    __slots__ = ("keys", "_slots")

    def __init__(self) -> None:
        #: Heap of the keys with events pending; ``keys[0]`` is the instant
        #: :meth:`pop` serves next.  Read it, do not change it.
        self.keys: List[Tuple[float, int]] = []
        self._slots: Dict[Tuple[float, int], Any] = {}

    def push(self, time: float, priority: int, event: Any) -> None:
        key = (time, priority)
        slots = self._slots
        held = slots.get(key)
        if held is None:
            slots[key] = event
            heappush(self.keys, key)
        elif type(held) is deque:
            held.append(event)
        else:
            slots[key] = deque((held, event))

    def pop(self) -> Tuple[float, int, Any]:
        """Hand out the next event as ``(time, priority, event)``.

        The smallest key is looked up on every call, so an event pushed
        while its instant is being served (into the slot in hand, or under a
        key that sorts before it) comes out where its own heap entry would.
        """
        key = self.keys[0]
        slots = self._slots
        event = slots[key]
        if type(event) is deque:
            held = event
            event = held.popleft()
            if held:
                return key[0], key[1], event
        del slots[key]
        heappop(self.keys)
        return key[0], key[1], event


@contextmanager
def full_collections_deferred() -> Iterator[None]:
    """Run a simulated-time event loop without oldest-generation collections.

    Such a loop keeps hundreds of thousands of messages, timers and protocol
    instances alive and reachable; a full pass of the cyclic collector walks
    them all and frees next to nothing.  Young collections go on.  The
    caller's thresholds come back on the way out, whereupon the pass that was
    held off is due; a collector the caller had disabled stays disabled.
    """
    thresholds = gc.get_threshold()
    gc.set_threshold(thresholds[0], thresholds[1], 1 << 30)
    try:
        yield
    finally:
        gc.set_threshold(*thresholds)
