"""Regression tests for the transport fault-delivery contract.

Wire testing the transports exposed three bugs, each pinned here:

1. ``InProcessTransport.deliver`` stranded a reorder-held message when the
   *next* delivery to that recipient was a self-message or was dropped --
   the hold must be released on **every** subsequent delivery attempt.
2. Crash-stop was inconsistent about in-flight traffic: a message handed to
   the transport before the crash is on the network and must be delivered
   on every path (regular delivery, held-message release, and
   ``flush_reordered``); a message held *for* a crashed recipient is
   discarded with the rest of its inbox.
3. ``AsyncioBackend`` silently ignored ``time_scale`` when a prebuilt clock
   instance was passed -- it must raise, matching ``make_backend``'s rule
   for prebuilt instances.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultPlan, LinkFault
from repro.runtime import AsyncioBackend, InProcessTransport
from repro.runtime.api import RealClock, VirtualClock
from repro.runtime.transport import DELIVER, DROP, DUPLICATE, HOLD
from repro.sim.messages import Message

from test_scenario_matrix import Scenario, canonical_outputs
from test_runtime import run_preprocessing_on


class ScriptedFaults:
    """``decide`` pops from a fixed script (then delivers); logs every call."""

    def __init__(self, script):
        self.script = list(script)
        self.log = []

    def decide(self, sender, recipient, seq, can_hold, send_time=0.0):
        decision = self.script.pop(0) if self.script else DELIVER
        if decision == HOLD and not can_hold:
            decision = DELIVER
        self.log.append((decision, sender, recipient, seq))
        return decision


def msg(sender, recipient, tag="t", payload=0):
    return Message(sender, recipient, tag, payload, 0.0)


def inbox_payloads(transport, party_id):
    queue = transport.inbox(party_id)
    out = []
    while not queue.empty():
        message, _handled = queue.get_nowait()
        out.append((message.sender, message.payload))
    return out


def make_transport(script, parties=(1, 2, 3)):
    transport = InProcessTransport(faults=ScriptedFaults(script))
    transport.open(list(parties))
    return transport


# -- bug 1: held messages must be released on *every* delivery attempt ------

def test_held_message_released_by_self_delivery():
    transport = make_transport([HOLD])
    assert transport.deliver(msg(1, 2, payload="held")) == []
    pairs = transport.deliver(msg(2, 2, payload="self"))
    # Self-delivery is exempt from faults but still counts as a delivery
    # attempt to party 2: the held message is released right behind it.
    assert [pair[0].payload for pair in pairs] == ["self", "held"]
    assert inbox_payloads(transport, 2) == [(2, "self"), (1, "held")]


def test_held_message_released_after_drop():
    transport = make_transport([HOLD, DROP])
    assert transport.deliver(msg(1, 2, payload="held")) == []
    pairs = transport.deliver(msg(3, 2, payload="dropped"))
    # The second message is lost, but its delivery attempt still releases
    # the held one -- a hold is an adjacent swap, never an unbounded park.
    assert [pair[0].payload for pair in pairs] == ["held"]
    assert inbox_payloads(transport, 2) == [(1, "held")]


def test_held_message_released_behind_duplicate():
    transport = make_transport([HOLD, DUPLICATE])
    transport.deliver(msg(1, 2, payload="held"))
    pairs = transport.deliver(msg(3, 2, payload="dup"))
    assert [pair[0].payload for pair in pairs] == ["dup", "dup", "held"]


def test_at_most_one_hold_per_recipient():
    transport = make_transport([HOLD, HOLD])
    transport.deliver(msg(1, 2, payload="first"))
    faults = transport.faults
    pairs = transport.deliver(msg(3, 2, payload="second"))
    # can_hold was False for the second decide, so the scripted HOLD
    # degraded to DELIVER and the first hold was released behind it.
    assert faults.log[1][0] == DELIVER
    assert [pair[0].payload for pair in pairs] == ["second", "first"]


# -- bug 2: crash-stop vs in-flight traffic ---------------------------------

def test_in_flight_message_from_crashed_sender_is_delivered():
    transport = make_transport([])
    # Party 1 handed the message to the transport, then crashed: the packet
    # is on the network and still lands.
    transport.crash(1)
    pairs = transport.deliver(msg(1, 2, payload="in-flight"))
    assert [pair[0].payload for pair in pairs] == ["in-flight"]


def test_held_message_from_crashed_sender_still_released():
    transport = make_transport([HOLD])
    transport.deliver(msg(1, 2, payload="held"))
    transport.crash(1)
    released = transport.flush_reordered()
    assert [pair[0].payload for pair in released] == ["held"]


def test_held_message_for_crashed_recipient_is_discarded():
    transport = make_transport([HOLD])
    transport.deliver(msg(1, 2, payload="held"))
    transport.crash(2)
    assert transport.flush_reordered() == []
    assert transport.deliver(msg(3, 2, payload="late")) == []
    assert inbox_payloads(transport, 2) == []


# -- end-to-end: total reordering keeps liveness and outputs -----------------

def test_preprocessing_survives_total_reordering():
    """``reorder=1.0`` holds every other message on every channel;
    before the release-on-every-attempt fix, a self-delivery or crash could
    strand a held message and wedge the run."""
    scenario = Scenario(4, 1, 0, "honest", "sync", None)
    baseline = run_preprocessing_on(scenario, "asyncio")
    faulty = run_preprocessing_on(
        scenario,
        "asyncio",
        transport=InProcessTransport(
            faults=FaultPlan(5, link_faults=[LinkFault(reorder=1.0)])
        ),
    )
    assert faulty.all_honest_done()
    assert canonical_outputs(faulty) == canonical_outputs(baseline)


# -- bug 3: prebuilt clock + time_scale must raise ---------------------------

def test_time_scale_alongside_prebuilt_clock_raises():
    with pytest.raises(ValueError, match="time_scale"):
        AsyncioBackend(4, clock=RealClock(0.01), time_scale=0.02)
    with pytest.raises(ValueError, match="time_scale"):
        AsyncioBackend(4, clock=VirtualClock(), time_scale=0.5)


def test_prebuilt_clock_without_time_scale_is_fine():
    backend = AsyncioBackend(4, clock=RealClock(0.01))
    assert backend.clock.time_scale == 0.01
    backend = AsyncioBackend(4, clock="real", time_scale=0.25)
    assert backend.clock.time_scale == 0.25
