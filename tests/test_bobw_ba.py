"""Tests for ΠBA, the best-of-both-worlds Byzantine agreement (Theorem 3.6)."""

from repro.ba.bobw import BestOfBothWorldsBA, ba_time_bound
from repro.sim import (
    AdversarialAsynchronousNetwork,
    AsynchronousNetwork,
    CrashBehavior,
    Simulator,
    SynchronousNetwork,
    WrongValueBehavior,
)


def _run_ba(n, t, inputs, network=None, corrupt=None, seed=0, max_time=20_000.0):
    sim = Simulator(n, network=network or SynchronousNetwork(), seed=seed,
                    corrupt=corrupt or {})

    def factory(party):
        return BestOfBothWorldsBA(party, "ba", faults=t, value=inputs.get(party.id), anchor=0.0)

    return sim.run(factory, max_time=max_time)


# -- synchronous network: ΠBA is a t-perfectly-secure SBA ------------------------------------


def test_sync_validity_unanimous():
    result = _run_ba(4, 1, {i: 1 for i in range(1, 5)})
    assert all(v == 1 for v in result.honest_outputs().values())
    result = _run_ba(4, 1, {i: 0 for i in range(1, 5)})
    assert all(v == 0 for v in result.honest_outputs().values())


def test_sync_consistency_mixed():
    result = _run_ba(4, 1, {1: 1, 2: 0, 3: 1, 4: 0}, seed=1)
    outputs = list(result.honest_outputs().values())
    assert len(outputs) == 4
    assert len(set(outputs)) == 1


def test_sync_guaranteed_liveness_time():
    n, t = 4, 1
    result = _run_ba(n, t, {i: 1 for i in range(1, 5)})
    # All honest parties decide well within the nominal T_BA bound.
    assert max(result.honest_output_times().values()) <= ba_time_bound(n, t, 1.0)


def test_sync_validity_with_crashed_corrupt_party():
    result = _run_ba(4, 1, {1: 1, 2: 1, 3: 1, 4: 0}, corrupt={4: CrashBehavior()})
    outputs = result.honest_outputs()
    assert len(outputs) == 3
    assert all(v == 1 for v in outputs.values())


def test_sync_validity_with_byzantine_party():
    result = _run_ba(
        4, 1, {1: 0, 2: 0, 3: 0, 4: 0},
        corrupt={4: WrongValueBehavior(offset=1)}, seed=2,
    )
    outputs = result.honest_outputs()
    assert all(v == 0 for v in outputs.values())


def test_sync_larger_committee_n7_t2():
    inputs = {i: (1 if i <= 5 else 0) for i in range(1, 8)}
    result = _run_ba(7, 2, inputs, corrupt={6: CrashBehavior(), 7: CrashBehavior()}, seed=3)
    outputs = result.honest_outputs()
    assert len(outputs) == 5
    assert all(v == 1 for v in outputs.values())


# -- asynchronous network: ΠBA is a t-perfectly-secure ABA ------------------------------------


def test_async_validity_unanimous():
    result = _run_ba(4, 1, {i: 1 for i in range(1, 5)},
                     network=AsynchronousNetwork(max_delay=12.0), seed=4)
    assert all(v == 1 for v in result.honest_outputs().values())


def test_async_consistency_mixed():
    result = _run_ba(4, 1, {1: 0, 2: 1, 3: 0, 4: 1},
                     network=AsynchronousNetwork(max_delay=12.0), seed=5)
    outputs = list(result.honest_outputs().values())
    assert len(outputs) == 4
    assert len(set(outputs)) == 1


def test_async_validity_with_slow_honest_party():
    # One honest party's messages are heavily delayed; validity must still hold.
    network = AdversarialAsynchronousNetwork(slow_parties=frozenset({3}), slow_delay=60.0,
                                             fast_delay=0.3)
    result = _run_ba(4, 1, {i: 1 for i in range(1, 5)}, network=network, seed=6,
                     max_time=60_000.0)
    outputs = result.honest_outputs()
    assert len(outputs) == 4
    assert all(v == 1 for v in outputs.values())


def test_async_consistency_with_byzantine_party():
    result = _run_ba(
        5, 1, {1: 1, 2: 0, 3: 1, 4: 0, 5: 1},
        network=AsynchronousNetwork(max_delay=8.0),
        corrupt={5: WrongValueBehavior(offset=1)}, seed=7,
    )
    outputs = list(result.honest_outputs().values())
    assert len(outputs) == 4
    assert len(set(outputs)) == 1


def test_outputs_are_bits():
    result = _run_ba(4, 1, {1: 1, 2: 0, 3: 0, 4: 1}, seed=8)
    assert all(v in (0, 1) for v in result.honest_outputs().values())
