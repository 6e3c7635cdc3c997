"""End-to-end tests for ΠCirEval / run_mpc (Theorem 7.1).

These run the complete best-of-both-worlds stack (input ACS, preprocessing,
Beaver evaluation, output reconstruction, termination), so each test costs a
few seconds of wall time; the circuits and party counts are kept small.
"""

import re

import pytest

from repro.ba.aba import AbaCarrier, BrachaABA
from repro.ba.bobw import BASlot, BestOfBothWorldsBA
from repro.ba.sba import PhaseKingSBA
from repro.broadcast.acast import AcastProtocol
from repro.broadcast.bc import BroadcastCarrier, BroadcastProtocol
from repro.circuits import (
    inner_product_circuit,
    mean_circuit,
    millionaires_product_circuit,
    multiplication_circuit,
)
from repro.field import default_field
from repro.mpc import run_mpc
from repro.mpc.engine import check_parameters
from repro.mpc.protocol import cir_eval_time_bound
from repro.sim import (
    AdversarialAsynchronousNetwork,
    AsynchronousNetwork,
    CrashBehavior,
    SynchronousNetwork,
    WrongValueBehavior,
)
from repro.sim.party import Outcome, ProtocolInstance
from repro.sim.simulator import SimulationMetrics

from golden import assert_matches_golden
from protocol_helpers import SLOT_TAG

F = default_field()


def test_check_parameters():
    check_parameters(4, 1, 0)
    check_parameters(5, 1, 1)
    check_parameters(8, 2, 1)
    with pytest.raises(ValueError):
        check_parameters(4, 1, 1)  # 3*1 + 1 = 4, not < 4
    with pytest.raises(ValueError):
        check_parameters(5, 1, 2)  # would need ta <= ts


def test_sync_product_all_honest(monkeypatch):
    # Every ΠBC of the evaluation joins its carrier in CircuitEvaluation.start()'s
    # synchronous cascade, before any message is delivered.
    delivered_at_start = []
    start = BroadcastProtocol.start
    monkeypatch.setattr(BroadcastProtocol, "start", lambda bc: (
        delivered_at_start.append(bc.party.runtime.metrics.messages_delivered), start(bc))[1])
    circuit = multiplication_circuit(F, 4)
    result = run_mpc(circuit, {1: 3, 2: 5, 3: 7, 4: 11}, n=4, ts=1, ta=0, seed=1)
    assert result.completed
    assert result.agreed
    assert result.outputs == [F(1155)]
    # All honest parties are included in the common subset (synchronous network).
    assert set(result.common_subset) == {1, 2, 3, 4}
    # The time bound of Theorem 7.1 (with our sub-protocol constants) holds.
    bound = cir_eval_time_bound(4, 1, circuit.multiplicative_depth, 1.0)
    assert max(result.output_times.values()) <= bound
    # The message budget, so that a structural regression fails here and not
    # only in benchmarks/e2e (sync_n4_tripsh is this run).  Per party: 120
    # sharings x (n verdict vectors + star) + 39 ΠBA banks x n vote vectors
    # = 756 logical ΠBCs, riding 32 carriers (8 anchor instants x 4 senders),
    # each one Acast of 27 messages; the 4 carriers of an instant share one
    # binary phase-king bank, 54 messages of 4 votes, each a 64-bit header, a
    # 64-bit round and 4 votes at 2 bits; the ΠABA slots, 144 per party,
    # launch at 4 instants and speak in 20 vectors, each to 3 peers.  The
    # rows and points of the 120 sharings (1,512 messages while each was its
    # own) ride the root's post: one message per sender, peer and instant
    # they are sent at, 6 instants (0, Δ and 2Δ, each split by the 1e-9 of
    # self-delivery) x 12 ordered pairs.  The rest is point-to-point (96):
    # the shares the 4 ΠTripSh open ride the preprocessing's opening post, one
    # message per sender, peer and instant, 3 instants x 12 ordered pairs (240
    # while each of their 20 reconstructions per party sent its own); one
    # reconstruction each for the ΠTripExt of all 3 groups (36 while each
    # group had its own), the 2 ΠBeaver rounds and the output, 4 x 12; and 12
    # on the evaluation's own tag.
    # The heaviest is the points a party owes one peer at 2Δ: 54 vectors (9
    # of 27 values, 36 of 9, 9 of 1) and 120 - 54 absent slots at 1 bit.
    assert result.metrics.messages_sent == 1_704 == 1_932 - 240 - 24 + 36
    assert result.metrics.messages_sent == 27 * 32 + 54 * 8 + 20 * 3 * 4 + 72 + 96
    assert result.metrics.honest_bits == 1_746_816
    assert result.metrics.max_message_bits == 35_314 == (
        64 + 8 * len("points") + 66 + 61 * (9 * 27 + 36 * 9 + 9 * 1))
    assert max(result.output_times.values()) == pytest.approx(145.052)
    assert delivered_at_start == [0] * (4 * 756)
    for party in result.run.backend.parties.values():
        carriers = [e for e in party.instances.values() if type(e) is BroadcastCarrier]
        assert sorted({round(c.anchor, 3) for c in carriers}) == [
            3.0, 12.004, 21.008, 42.014, 51.018, 60.022, 81.029, 127.049]
        assert len(carriers) == 32
        assert sum(len(c.entries) for c in carriers) == 756 == 120 * 5 + 39 * 4
        # No input missed its bundle (the three publishers at an anchor really
        # go through at_anchor) and nobody took the late path, so the carriers'
        # Acasts are the only ones: the late carriers are built on first use.
        # With the per-pair late Acasts built up front it was 2,348 Acasts and
        # 3,547 instances per party.
        assert all(c.output is not None and None not in c.bundle for c in carriers)
        assert not any(LATE.search(tag) for tag in party.instances)
        acasts = [e for e in party.instances.values() if type(e) is AcastProtocol]
        assert len(acasts) == 32 and {a.tag for a in acasts} == {c.tag + "/acast" for c in carriers}
        abas = [e for e in party.instances.values() if type(e) is AbaCarrier]
        assert sorted((c.tag, len(c.entries)) for c in abas) == [
            ("mpc/aba@136052", 4), ("mpc/aba@30011", 96), ("mpc/aba@69025", 24),
            ("mpc/aba@90032", 20)]
        # One phase-king bank per anchor instant, slot s sender s's.
        banks = [e for e in party.instances.values() if type(e) is PhaseKingSBA]
        assert sorted(b.tag for b in banks) == sorted(
            {c.tag.rpartition("[")[0] + "/sba" for c in carriers})
        assert len(banks) == 8 and all(len(b.output) == 4 for b in banks)
    # The logical ΠBCs are records their carriers own, not registered
    # instances: 4,844 while each of the 756 per party was one; one post each.
    # Per party, one ΠTripTrans per ΠTripSh and one ΠTripExt for all groups
    # leave out 2 of 3 transformations of each of the 4 ΠTripSh, with their
    # ΠBeaver and reconstruction (24), and 2 of 3 extractions, with theirs
    # (8); the opening post is one more: 1,700 = 1,824 - 4 * (24 + 8) + 4.  The
    # 144 ΠABA slots per party are records their carriers hold, not instances.
    instances = sum(len(p.instances) for p in result.run.backend.parties.values())
    assert instances == 1_124 == 1_700 - 4 * 144


def test_endpoints_and_slots_are_records_their_owners_hold():
    """A logical ΠBC is an entry of its carrier and a ΠBA slot one of its bank,
    its ΠABA machine included: none is a registered instance, and all output
    through ``Outcome`` -- a slot's output time included, the last of which is
    its bank's."""
    assert not issubclass(BrachaABA, ProtocolInstance) and issubclass(BASlot, BrachaABA)
    result = run_mpc(multiplication_circuit(F, 4), {1: 3, 2: 5, 3: 7, 4: 11},
                     n=4, ts=1, ta=0, seed=1)
    assert result.outputs == [F(1155)]
    for party in result.run.backend.parties.values():
        instances = list(party.instances.values())
        assert not any(isinstance(e, (BroadcastProtocol, BrachaABA)) for e in instances)
        assert not any(SLOT_TAG.search(tag) for tag in party.instances)
        entries = [e for c in instances if type(c) is BroadcastCarrier for e in c.entries]
        assert len(entries) == 756
        assert all(isinstance(e, Outcome) and e.output_time is not None for e in entries)
        banks = [e for e in instances if isinstance(e, BestOfBothWorldsBA)]
        assert banks
        for bank in banks:
            assert all(isinstance(slot, Outcome) and slot.has_output for slot in bank.slots)
            assert bank.output_time == max(slot.output_time for slot in bank.slots)
        slots = [e for c in instances if type(c) is AbaCarrier for e in c.entries]
        assert sorted(slot.tag for slot in slots) == sorted(
            slot.tag for bank in banks for slot in bank.slots)


#: The tag of a late carrier, ``<carrier>/late[k]``.
LATE = re.compile(r"/late\[\d+\]$")


def test_async_product_him_late_carriers(monkeypatch):
    """The asynchronous twin (``async_n5_him`` at seed 7): most verdicts and every
    ``star2`` miss their anchors.  Before the late carriers each late verdict
    and ``star2`` was its own Acast, 44 messages at n = 5 (36,080 of 42,584
    messages); now what a sender gives late for one carrier at one instant is
    one numbered Acast: 37 of them, carrying 466 entries (a partial verdict
    vector or an (E', F')) and 770 slots -- 41, 493 and 820 while every row
    and point was a message of its own, not an entry of its root's post.  The
    HIM extraction's slots share one ΠTripExt: 4,532 messages, 4,592 while
    each slot's opened its own masks."""
    on_late = {True: 0, False: 0}
    record = SimulationMetrics.record_send

    def recording(metrics, message, *args, **kwargs):
        on_late[bool(LATE.search(message.tag))] += 1
        return record(metrics, message, *args, **kwargs)

    monkeypatch.setattr(SimulationMetrics, "record_send", recording)
    circuit = multiplication_circuit(F, 5)
    inputs = {1: 695_425_565, 2: 2_035_525_363, 3: 323_946_140, 4: 847_877_000,
              5: 1_397_871_145}
    result = run_mpc(circuit, inputs, n=5, ts=1, ta=1, offline="him", seed=7,
                     network=AsynchronousNetwork(max_delay=3.0))
    assert result.completed and result.agreed and result.common_subset == [1, 2, 3, 4, 5]
    assert result.outputs == circuit.evaluate({pid: F(v) for pid, v in inputs.items()})
    acast = (5 - 1) + 2 * 5 * (5 - 1)  # init, then every party's echo and ready
    for party in result.run.backend.parties.values():
        late = [e for tag, e in party.instances.items() if LATE.search(tag)]
        assert len(late) == 37 and all(type(e) is AcastProtocol for e in late)
        entries = [entry for e in late for entry in e.output.entries if entry is not None]
        assert len(entries) == 466
        assert sum(1 if type(entry[0]) is frozenset else sum(s is not None for s in entry)
                   for entry in entries) == 770
    assert on_late[True] == 44 * 37 == acast * 37
    assert result.metrics.messages_sent == 4_532 == on_late[False] + 44 * 37
    assert result.metrics.honest_bits == 2_327_140


def test_sync_linear_circuit_no_multiplications():
    circuit = mean_circuit(F, 4, scale=1)
    result = run_mpc(circuit, {1: 10, 2: 20, 3: 30, 4: 40}, n=4, ts=1, ta=0, seed=2)
    assert result.completed
    assert result.outputs == [F(100)]


def test_sync_crashed_corrupt_party_input_defaults_to_zero():
    circuit = mean_circuit(F, 4)
    result = run_mpc(circuit, {1: 10, 2: 20, 3: 30, 4: 40}, n=4, ts=1, ta=0, seed=3,
                     corrupt={2: CrashBehavior()})
    assert result.completed
    assert result.agreed
    # Party 2 is excluded from CS, its input counts as 0.
    assert result.outputs == [F(80)]
    assert 2 not in result.common_subset
    assert {1, 3, 4} <= set(result.common_subset)


def test_sync_byzantine_party_cannot_break_agreement_or_correctness():
    circuit = millionaires_product_circuit(F, 4)
    result = run_mpc(circuit, {1: 1, 2: 2, 3: 3, 4: 4}, n=4, ts=1, ta=0, seed=4,
                     corrupt={4: WrongValueBehavior(offset=1)})
    assert result.completed
    assert result.agreed
    # The corrupt party may change (or lose) its own input, but the honest
    # parties' inputs are fixed: the output must be consistent with inputs
    # 1, 2, 3 for parties 1-3 and *some* value for party 4.
    output = int(result.outputs[0])
    possible = {int(circuit.evaluate({1: F(1), 2: F(2), 3: F(3), 4: F(x)})[0])
                for x in range(0, 6)}
    # x is unconstrained in general; at minimum the honest prefix 1*2 + 2*3 = 8
    # must be respected modulo the corrupt contribution 3*x.
    assert (output - 8) % 3 == 0 or output in possible


def test_sync_multi_output_circuit():
    circuit = inner_product_circuit(F, owners_x=[1, 2], owners_y=[3, 4])
    result = run_mpc(circuit, {1: 2, 2: 3, 3: 4, 4: 5}, n=4, ts=1, ta=0, seed=5)
    assert result.completed
    assert result.outputs == [F(2 * 4 + 3 * 5)]


def test_batched_run_matches_scalar_reference_run():
    """Regression: the run reproduces the pinned scalar reference run.

    The golden digest of this circuit/seed was recorded from the scalar
    reference path before it was deleted; outputs, common subset and the
    whole transcript fingerprint must still match it.
    """
    circuit = millionaires_product_circuit(F, 4)
    inputs = {1: 3, 2: 5, 3: 7, 4: 11}
    result = run_mpc(circuit, inputs, n=4, ts=1, ta=0, seed=9)
    assert result.completed
    assert result.outputs == circuit.evaluate({pid: F(v) for pid, v in inputs.items()})
    assert_matches_golden(
        "mpc/millionaires_product/n4ts1ta0/seed9", result, extra=result.common_subset
    )


def test_batched_run_matches_scalar_reference_run_with_byzantine_party():
    circuit = mean_circuit(F, 4)
    inputs = {1: 8, 2: 16, 3: 24, 4: 32}
    result = run_mpc(
        circuit, inputs, n=4, ts=1, ta=0, seed=10,
        corrupt={3: WrongValueBehavior(offset=2)},
    )
    assert result.completed
    assert_matches_golden(
        "mpc/mean/n4ts1ta0/seed10/wrong_value_p3", result, extra=result.common_subset
    )


@pytest.mark.slow
def test_async_product_all_honest():
    circuit = multiplication_circuit(F, 4)
    result = run_mpc(circuit, {1: 2, 2: 3, 3: 4, 4: 5}, n=4, ts=1, ta=0, seed=6,
                     network=AsynchronousNetwork(max_delay=4.0))
    assert result.completed
    assert result.agreed
    # In an asynchronous network up to t_s honest parties' inputs may be
    # dropped (here t_a = 0 corruption but slow parties can be excluded);
    # an excluded party's input counts as 0 in the computed function.
    values = {1: 2, 2: 3, 3: 4, 4: 5}
    effective = {pid: (values[pid] if pid in result.common_subset else 0) for pid in values}
    expected = circuit.evaluate({pid: F(v) for pid, v in effective.items()})
    assert result.outputs == expected
    assert len(result.common_subset) >= 3


@pytest.mark.slow
def test_async_n5_with_byzantine_party():
    circuit = mean_circuit(F, 5)
    result = run_mpc(circuit, {1: 1, 2: 2, 3: 3, 4: 4, 5: 5}, n=5, ts=1, ta=1, seed=7,
                     network=AsynchronousNetwork(max_delay=3.0),
                     corrupt={5: WrongValueBehavior(offset=9)})
    assert result.completed
    assert result.agreed
    assert len(result.common_subset) >= 4


@pytest.mark.slow
def test_sync_with_slow_party_still_includes_all_honest_inputs():
    """Synchronous network: even the slowest honest party's input is used."""
    circuit = mean_circuit(F, 4)
    result = run_mpc(circuit, {1: 1, 2: 2, 3: 3, 4: 4}, n=4, ts=1, ta=0, seed=8,
                     network=SynchronousNetwork(jitter=0.2))
    assert result.completed
    assert result.outputs == [F(10)]
    assert set(result.common_subset) == {1, 2, 3, 4}
