"""Tests for the binary phase-king synchronous Byzantine agreement (ΠBGP stand-in)."""

import pytest

from repro.ba.sba import PhaseKingSBA, sba_time_bound
from repro.broadcast.acast import Bundle
from repro.sim import AsynchronousNetwork, Behavior, CrashBehavior, Simulator, SynchronousNetwork
from repro.sim.messages import Message

from protocol_helpers import RewriteBehavior


def _run_sba(n, t, inputs, network=None, corrupt=None, seed=0):
    """An n-slot bank, as ΠBC runs it, with each party's bit in every slot.

    Every slot decides alike; the honest outputs (the slot's bit) and output
    times are returned."""
    sim = Simulator(n, network=network or SynchronousNetwork(), seed=seed,
                    corrupt=corrupt or {})

    def factory(party):
        return PhaseKingSBA(party, "sba", faults=t, value=(inputs.get(party.id),) * n)

    result = sim.run(factory, max_time=10_000.0)
    outputs = result.honest_outputs()
    for output in outputs.values():
        assert len(output) == n and all(value == output[0] for value in output)
    return {pid: output[0] for pid, output in outputs.items()}, result.honest_output_times()


def test_validity_unanimous_inputs():
    for bit in (0, 1):
        outputs, _ = _run_sba(4, 1, {i: bit for i in range(1, 5)})
        assert outputs == {i: bit for i in range(1, 5)}


def test_consistency_mixed_inputs():
    outputs, _ = _run_sba(4, 1, {1: 1, 2: 1, 3: 0, 4: 0})
    assert len(outputs) == 4
    assert len(set(outputs.values())) == 1


def test_output_time_bound_synchronous():
    n, t = 4, 1
    _, times = _run_sba(n, t, {i: 1 for i in range(1, n + 1)})
    bound = sba_time_bound(n, t, 1.0)
    assert all(time <= bound + 1e-6 for time in times.values())


def test_validity_with_crashed_corrupt_party():
    outputs, _ = _run_sba(4, 1, {i: 1 for i in range(1, 5)}, corrupt={4: CrashBehavior()})
    assert outputs == {1: 1, 2: 1, 3: 1}


def _flipping(tag, payload):
    """Every vote the party sends, flipped; a ``None`` stays ``None``."""
    round_index, vector = payload
    votes = tuple(None if v is None else 1 - v for v in vector.entries[0])
    return [(tag, (round_index, Bundle((votes,), vector.n)))]


@pytest.mark.parametrize("bit", [0, 1])
def test_validity_with_a_party_that_flips_every_vote(bit):
    outputs, _ = _run_sba(4, 1, {i: bit for i in range(1, 5)},
                          corrupt={4: RewriteBehavior({"sba": _flipping})})
    assert outputs == {1: bit, 2: bit, 3: bit}


def test_consistency_with_a_flipping_king():
    """P_1, phase 1's king, flips its votes and its king round on split inputs."""
    outputs, _ = _run_sba(4, 1, {1: 1, 2: 0, 3: 1, 4: 0},
                          corrupt={1: RewriteBehavior({"sba": _flipping})})
    assert len(outputs) == 3 and len(set(outputs.values())) == 1


class _FlipTo(Behavior):
    """Votes as the protocol says, except that what goes to ``recipients`` is
    flipped; keeps each (recipient, round)'s vote line as sent."""

    def __init__(self, recipients):
        self.recipients = set(recipients)
        self.sent = {}

    def filter_send(self, party, message):
        if message.recipient in self.recipients:
            ((tag, payload),) = _flipping(message.tag, message.payload)
            message = Message(message.sender, message.recipient, tag, payload, message.send_time)
        round_index, vector = message.payload
        self.sent[message.recipient, round_index] = vector.entries[0]
        return [message]


def test_consistency_with_equivocating_party():
    """P_4 tells P_1 and P_2 the flip of what it tells P_3, on split inputs."""
    equivocator = _FlipTo({1, 2})
    outputs, _ = _run_sba(4, 1, {1: 1, 2: 0, 3: 1, 4: 0}, corrupt={4: equivocator})
    assert len(outputs) == 3 and len(set(outputs.values())) == 1
    rounds = {r for _, r in equivocator.sent}
    assert any(equivocator.sent[1, r] != equivocator.sent[3, r] for r in rounds)


def test_larger_committee_n7_t2():
    inputs = {1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 0, 7: 0}
    outputs, _ = _run_sba(7, 2, inputs, corrupt={6: CrashBehavior(), 7: CrashBehavior()})
    assert outputs == {pid: 1 for pid in range(1, 6)}


def test_guaranteed_liveness_in_asynchronous_network():
    # In an asynchronous network only liveness is guaranteed: every honest
    # party outputs *something* by local time T_BGP.
    outputs, times = _run_sba(4, 1, {1: 1, 2: 0, 3: 1, 4: 0},
                              network=AsynchronousNetwork(max_delay=30.0), seed=5)
    assert len(outputs) == 4
    assert set(outputs.values()) <= {0, 1}
    bound = sba_time_bound(4, 1, 1.0)
    assert all(time <= bound + 1e-6 for time in times.values())


def test_a_non_binary_input_vector_is_0_in_every_slot():
    """Every party inputs ``value``: not an n-tuple of the ints 0 and 1, so
    each inputs 0 in every slot, and every slot decides 0."""
    for value in [(1, 1, 1, 2), (True,) * 4, ("1",) * 4, (1, 1, 1), (1, 1, 1, 1, 1),
                  (1, 1, None, 1), [1, 1, 1, 1], Bundle(((1, 1, 1, 1),), 4), 1, None]:
        sim = Simulator(4, network=SynchronousNetwork())
        result = sim.run(lambda party: PhaseKingSBA(party, "sba", faults=1, value=value),
                         max_time=100.0)
        assert result.honest_outputs() == {pid: (0,) * 4 for pid in range(1, 5)}, value


def test_late_input_still_produces_output():
    sim = Simulator(4, network=SynchronousNetwork())
    instances = {}
    for pid, party in sim.parties.items():
        instances[pid] = PhaseKingSBA(party, "sba", faults=1)
    for inst in instances.values():
        inst.start()
    # An input given after the start is never read; liveness still yields an
    # output for every party, the inputs' default.
    for inst in instances.values():
        inst.provide_input((1,) * 4)
    sim.run_until(until=lambda: all(i.has_output for i in instances.values()),
                  max_time=1_000.0)
    assert all(i.output == (0,) * 4 for i in instances.values())
