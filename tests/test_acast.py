"""Tests for Bracha's Acast (Lemma 2.4)."""

import pytest

from repro.broadcast.acast import AcastProtocol, acast_time_bound
from repro.sim import (
    AsynchronousNetwork,
    CrashBehavior,
    EquivocatingBehavior,
    ProtocolRunner,
    SilentBehavior,
    SynchronousNetwork,
)


def _run_acast(n, t, sender, message, network, corrupt=None, seed=0, max_time=500.0):
    runner = ProtocolRunner(n, network=network, seed=seed, corrupt=corrupt or {})

    def factory(party):
        return AcastProtocol(
            party,
            "acast",
            sender=sender,
            faults=t,
            message=message if party.id == sender else None,
        )

    return runner.run(factory, max_time=max_time)


def test_sync_honest_sender_validity_and_liveness():
    result = _run_acast(4, 1, sender=1, message="m", network=SynchronousNetwork())
    outputs = result.honest_outputs()
    assert len(outputs) == 4
    assert all(v == "m" for v in outputs.values())
    # Lemma 2.4: all honest parties obtain the output within 3Δ.
    assert all(t <= acast_time_bound(1.0) + 1e-6 for t in result.honest_output_times().values())


def test_async_honest_sender_eventual_delivery():
    result = _run_acast(4, 1, sender=2, message=("payload", 5), network=AsynchronousNetwork(), seed=7)
    outputs = result.honest_outputs()
    assert len(outputs) == 4
    assert all(v == ("payload", 5) for v in outputs.values())


def test_corrupt_silent_sender_no_liveness():
    result = _run_acast(
        4, 1, sender=3, message="m", network=SynchronousNetwork(),
        corrupt={3: SilentBehavior(lambda tag: True)}, max_time=100.0,
    )
    assert len(result.honest_outputs()) == 0


def test_corrupt_equivocating_sender_consistency():
    # Sender sends different init values to {3, 4}; consistency requires that
    # every honest party that outputs, outputs the same value.
    result = _run_acast(
        4, 1, sender=1, message=("v", 1), network=SynchronousNetwork(),
        corrupt={1: EquivocatingBehavior(group_b=[3, 4], tag_predicate=lambda t: True)},
        max_time=100.0,
    )
    outputs = list(result.honest_outputs().values())
    assert len(set(map(str, outputs))) <= 1


def test_crashed_non_sender_does_not_block():
    result = _run_acast(
        4, 1, sender=1, message="m", network=SynchronousNetwork(),
        corrupt={4: CrashBehavior()},
    )
    outputs = result.honest_outputs()
    assert len(outputs) == 3
    assert all(v == "m" for v in outputs.values())


def test_larger_committee_n7_t2():
    result = _run_acast(7, 2, sender=5, message="hello", network=AsynchronousNetwork(), seed=3)
    outputs = result.honest_outputs()
    assert len(outputs) == 7
    assert all(v == "hello" for v in outputs.values())


def test_communication_is_order_n_squared():
    result4 = _run_acast(4, 1, sender=1, message="x" * 8, network=SynchronousNetwork())
    result8 = _run_acast(8, 2, sender=1, message="x" * 8, network=SynchronousNetwork())
    # Message count grows roughly quadratically (ratio ~4 for doubling n).
    ratio = result8.metrics.messages_sent / result4.metrics.messages_sent
    assert 2.5 <= ratio <= 6.0


# -- batched payloads (PackedFieldVector) -------------------------------------------


def test_packed_vector_roundtrip_and_digest():
    from repro.broadcast.acast import PackedFieldVector, maybe_pack_payload
    from repro.field import default_field

    field = default_field()
    elements = tuple(field(v) for v in (3, 0, field.modulus - 1, 42))
    packed = maybe_pack_payload(elements)
    assert isinstance(packed, PackedFieldVector)
    assert packed.elements() == list(elements)
    assert len(packed) == 4
    # Equal vectors are equal objects with equal (cached) hashes...
    twin = PackedFieldVector.pack(field, list(elements))
    assert packed == twin and hash(packed) == hash(twin)
    # ...and dict counting (the Acast echo/ready pattern) groups them.
    votes = {}
    votes.setdefault(packed, set()).add(1)
    votes.setdefault(twin, set()).add(2)
    assert votes[packed] == {1, 2}
    # Non-vectors and heterogeneous containers pass through untouched.
    assert maybe_pack_payload("m") == "m"
    assert maybe_pack_payload((1, field(2))) == (1, field(2))


def test_acast_delivers_packed_vector_with_identical_bits():
    from golden import assert_matches_golden
    from repro.broadcast.acast import PackedFieldVector
    from repro.field import default_field

    field = default_field()
    vector = tuple(field(v) for v in range(16))
    result = _run_acast(4, 1, sender=1, message=vector, network=SynchronousNetwork())
    assert len(result.honest_outputs()) == 4
    for output in result.honest_outputs().values():
        assert isinstance(output, PackedFieldVector)
        assert output.elements() == list(vector)
    # Packing must not change the transcript accounting: the digest was
    # recorded from a run that broadcast the unpacked element tuple.
    assert_matches_golden("acast/vector16/n4t1/sync", result)


def test_equivocating_sender_with_packed_vectors_stays_consistent():
    """A perturbed packed vector is a *different* digest: consistency holds."""
    from repro.field import default_field

    field = default_field()
    vector = tuple(field(v) for v in range(8))
    result = _run_acast(
        4, 1, sender=1, message=vector, network=SynchronousNetwork(),
        corrupt={1: EquivocatingBehavior(group_b=[3, 4], tag_predicate=lambda t: True)},
        max_time=100.0,
    )
    outputs = list(result.honest_outputs().values())
    assert len({hash(v) for v in outputs}) <= 1


def test_late_input_via_provide_input():
    runner = ProtocolRunner(4, network=SynchronousNetwork())
    instances = {}

    def factory(party):
        inst = AcastProtocol(party, "acast", sender=1, faults=1)
        instances[party.id] = inst
        return inst

    for pid, party in runner.parties.items():
        instances[pid] = factory(party)
    for inst in instances.values():
        inst.start()
    runner.simulator.schedule_timer(2.0, lambda: instances[1].provide_input("late"))
    runner.simulator.run(until=lambda: all(i.has_output for i in instances.values()), max_time=50.0)
    assert all(i.output == "late" for i in instances.values())
