"""Tests for ΠBC: synchronous broadcast with asynchronous guarantees (Thm 3.5)."""

import pytest

from repro.broadcast.bc import BroadcastProtocol, bc_time_bound
from repro.sim import (
    AdversarialAsynchronousNetwork,
    AsynchronousNetwork,
    CrashBehavior,
    EquivocatingBehavior,
    Simulator,
    SilentBehavior,
    SynchronousNetwork,
)


def _run_bc(n, t, sender, message, network, corrupt=None, seed=0, max_time=2_000.0,
            wait_for_all=True):
    sim = Simulator(n, network=network, seed=seed, corrupt=corrupt or {})

    def factory(party):
        return BroadcastProtocol(
            party,
            "bc",
            sender=sender,
            faults=t,
            message=message if party.id == sender else None,
            anchor=0.0,
        )

    result = sim.run(factory, max_time=max_time, wait_for_all_honest=wait_for_all)
    return result


def test_sync_liveness_validity_and_time_bound():
    n, t = 4, 1
    result = _run_bc(n, t, sender=1, message=("msg", 9), network=SynchronousNetwork())
    outputs = result.honest_outputs()
    assert len(outputs) == n
    assert all(v == ("msg", 9) for v in outputs.values())
    bound = bc_time_bound(n, t, 1.0)
    # Theorem 3.5: every honest party decides through the regular mode at T_BC.
    for pid in range(1, n + 1):
        instance = result.instances[pid]
        assert instance.regular_decided
        assert instance.regular_output == ("msg", 9)
        assert instance.output_time == pytest.approx(bound, abs=0.1)


def test_sync_liveness_with_silent_corrupt_sender():
    # Liveness holds even for a silent sender: every honest party outputs ⊥.
    n, t = 4, 1
    result = _run_bc(
        n, t, sender=2, message="m", network=SynchronousNetwork(),
        corrupt={2: SilentBehavior(lambda tag: True)},
    )
    for pid in (1, 3, 4):
        instance = result.instances[pid]
        assert instance.regular_decided
        assert instance.regular_output is None
        assert instance.output is None


def test_sync_consistency_with_equivocating_sender():
    n, t = 4, 1
    result = _run_bc(
        n, t, sender=1, message=("v", 0), network=SynchronousNetwork(),
        corrupt={1: EquivocatingBehavior(group_b=[3, 4], tag_predicate=lambda tag: True)},
    )
    regular = [result.instances[pid].regular_output for pid in (2, 3, 4)]
    non_bottom = [v for v in regular if v is not None]
    assert len(set(map(str, non_bottom))) <= 1


def test_async_weak_validity_and_fallback_validity():
    # Slow honest sender: regular mode may output ⊥ but the fallback mode
    # eventually delivers the sender's message to everyone (t-fallback validity).
    n, t = 4, 1
    network = AdversarialAsynchronousNetwork(slow_parties=frozenset({1}), slow_delay=80.0,
                                             fast_delay=0.2)
    # Run the event queue to exhaustion: the regular mode first outputs ⊥
    # (which already counts as "an output"), the fallback switches it later.
    result = _run_bc(n, t, sender=1, message="late", network=network, max_time=None,
                     wait_for_all=False)
    outputs = result.honest_outputs()
    assert len(outputs) == n
    assert all(v == "late" for v in outputs.values())
    # At least one party must have used the fallback mode (regular was ⊥).
    assert any(result.instances[pid].regular_output is None for pid in range(1, n + 1))


def test_async_honest_sender_fast_network_regular_mode():
    n, t = 4, 1
    result = _run_bc(n, t, sender=3, message=(1, 2, 3),
                     network=AsynchronousNetwork(min_delay=0.05, max_delay=0.4), seed=2)
    assert all(v == (1, 2, 3) for v in result.honest_outputs().values())


def test_async_liveness_all_parties_decide_regular_mode_by_timeout():
    n, t = 4, 1
    result = _run_bc(n, t, sender=1, message="m",
                     network=AsynchronousNetwork(max_delay=50.0), seed=5,
                     wait_for_all=False, max_time=bc_time_bound(n, t, 1.0) + 1.0)
    for pid in range(1, n + 1):
        assert result.instances[pid].regular_decided


def test_fallback_consistency_with_corrupt_sender_async():
    # The corrupt sender equivocates while the network is asynchronous; any
    # two honest parties that obtain non-⊥ outputs (through either mode) agree.
    n, t = 4, 1
    result = _run_bc(
        n, t, sender=2, message=("a",), network=AsynchronousNetwork(max_delay=10.0),
        corrupt={2: EquivocatingBehavior(group_b=[4], tag_predicate=lambda tag: True)},
        seed=8, wait_for_all=False, max_time=3_000.0,
    )
    non_bottom = [
        result.instances[pid].output
        for pid in (1, 3, 4)
        if result.instances[pid].output is not None
    ]
    assert len(set(map(str, non_bottom))) <= 1


def test_crashed_receiver_does_not_block_others():
    n, t = 4, 1
    result = _run_bc(n, t, sender=1, message="m", network=SynchronousNetwork(),
                     corrupt={4: CrashBehavior()})
    outputs = result.honest_outputs()
    assert len(outputs) == 3
    assert all(v == "m" for v in outputs.values())


def test_communication_scales_quadratically():
    small = _run_bc(4, 1, sender=1, message="x", network=SynchronousNetwork())
    large = _run_bc(8, 2, sender=1, message="x", network=SynchronousNetwork())
    ratio = large.metrics.messages_sent / small.metrics.messages_sent
    assert ratio <= 8.0  # comfortably sub-cubic growth for doubled n


def test_on_delivery_helper_fires_for_regular_and_fallback():
    sim = Simulator(4, network=SynchronousNetwork())
    seen = []
    instances = {}
    for pid, party in sim.parties.items():
        inst = BroadcastProtocol(party, "bc", sender=1, faults=1,
                                 message="v" if pid == 1 else None, anchor=0.0)
        inst.on_delivery(lambda value, pid=pid: seen.append((pid, value)))
        instances[pid] = inst
    for inst in instances.values():
        inst.start()
    sim.run_until(until=lambda: len(seen) >= 4, max_time=100.0)
    assert sorted(pid for pid, _ in seen) == [1, 2, 3, 4]
    assert all(value == "v" for _, value in seen)
