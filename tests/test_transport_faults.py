"""Regression tests for the fault-delivery contract, now the scheduler's gate.

Wire testing the transports exposed two bugs in what was then a per-transport
fault path; both are pinned here on :class:`~repro.faults.plan.FaultGate`,
the one implementation every backend hands its messages through:

1. A reorder-held message was stranded when the *next* hand-out to that
   recipient was a self-message or was dropped -- the hold must be released
   on **every** subsequent hand-out.
2. Crash-stop was inconsistent about in-flight traffic: a message handed
   over before the crash is on the network and must be delivered on every
   path (regular hand-out, held-message release, and the flush when the
   queue drains); a message held *for* a crashed recipient is discarded.
"""

from __future__ import annotations

from repro.faults import FaultGate, FaultPlan, LinkFault
from repro.faults.plan import DELIVER, DROP, DUPLICATE, HOLD
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


def payloads(messages):
    return [message.payload for message in messages]


def make_gate(script, crashed=()):
    return FaultGate(ScriptedFaults(script), set(crashed))


# -- bug 1: held messages must be released on *every* hand-out --------------

def test_held_message_released_by_self_delivery():
    gate = make_gate([HOLD])
    assert gate.admit(msg(1, 2, payload="held")) == []
    # Self-delivery is exempt from faults but still counts as a hand-out to
    # party 2: the held message is released right behind it.
    assert payloads(gate.admit(msg(2, 2, payload="self"))) == ["self", "held"]


def test_held_message_released_after_drop():
    gate = make_gate([HOLD, DROP])
    assert gate.admit(msg(1, 2, payload="held")) == []
    # The second message is lost, but its hand-out still releases the held
    # one -- a hold is an adjacent swap, never an unbounded park.
    assert payloads(gate.admit(msg(3, 2, payload="dropped"))) == ["held"]


def test_held_message_released_behind_duplicate():
    gate = make_gate([HOLD, DUPLICATE])
    gate.admit(msg(1, 2, payload="held"))
    assert payloads(gate.admit(msg(3, 2, payload="dup"))) == ["dup", "dup", "held"]


def test_at_most_one_hold_per_recipient():
    gate = make_gate([HOLD, HOLD])
    gate.admit(msg(1, 2, payload="first"))
    released = gate.admit(msg(3, 2, payload="second"))
    # can_hold was False for the second decide, so the scripted HOLD
    # degraded to DELIVER and the first hold was released behind it.
    assert gate.plan.log[1][0] == DELIVER
    assert payloads(released) == ["second", "first"]


# -- bug 2: crash-stop vs in-flight traffic ---------------------------------

def test_in_flight_message_from_crashed_sender_is_delivered():
    # Party 1 handed the message over, then crashed: the packet is on the
    # network and still lands.
    gate = make_gate([], crashed={1})
    assert payloads(gate.admit(msg(1, 2, payload="in-flight"))) == ["in-flight"]


def test_held_message_from_crashed_sender_still_released():
    gate = make_gate([HOLD])
    gate.admit(msg(1, 2, payload="held"))
    gate.crashed.add(1)
    gate.crash(1)
    assert payloads(gate.flush()) == ["held"]


def test_held_message_for_crashed_recipient_is_discarded():
    gate = make_gate([HOLD])
    gate.admit(msg(1, 2, payload="held"))
    gate.crashed.add(2)
    gate.crash(2)
    assert gate.flush() == []
    assert gate.admit(msg(3, 2, payload="late")) == []


# -- end-to-end: total reordering keeps liveness and outputs -----------------

def test_preprocessing_survives_total_reordering():
    """``reorder=1.0`` holds every other message on every channel; before
    the release-on-every-hand-out fix, a self-delivery or crash could strand
    a held message and wedge the run."""
    scenario = Scenario(4, 1, 0, "honest", "sync")
    baseline = run_preprocessing_on(scenario, "sim")
    faulty = run_preprocessing_on(
        scenario, "sim", faults=FaultPlan(5, link_faults=[LinkFault(reorder=1.0)])
    )
    assert faulty.all_honest_done()
    assert canonical_outputs(faulty) == canonical_outputs(baseline)
