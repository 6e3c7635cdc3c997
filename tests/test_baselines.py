"""Tests for the baseline protocols (pure synchronous and pure asynchronous MPC)."""

import pytest

from repro.baselines import run_asynchronous_baseline, run_synchronous_baseline
from repro.baselines.dealer import TrustedTripleDealer
from repro.circuits import mean_circuit, multiplication_circuit
from repro.field import default_field
from repro.sim import (
    AdversarialAsynchronousNetwork,
    AsynchronousNetwork,
    CrashBehavior,
    SynchronousNetwork,
)

from golden import assert_matches_golden

F = default_field()


def _delta_violated_for(party):
    """Synchronous, except that ``party``'s outgoing messages take 50 Delta."""
    return AdversarialAsynchronousNetwork(
        slow_parties=frozenset({party}), slow_delay=50.0, fast_delay=1.0,
        slow_senders_only=True,
    )


def test_trusted_dealer_produces_multiplication_triples():
    dealer = TrustedTripleDealer(F, n=4, degree=1, seed=1)
    triples = dealer.triples(3)
    assert len(triples) == 3
    for a, b, c in triples:
        assert a.reconstruct() * b.reconstruct() == c.reconstruct()
    views = dealer.triple_shares_for(2)
    assert set(views) == {1, 2, 3, 4}
    assert all(len(v) == 2 for v in views.values())


# -- synchronous baseline ----------------------------------------------------------------------


def test_smpc_correct_in_synchronous_network():
    circuit = multiplication_circuit(F, 4)
    result = run_synchronous_baseline(circuit, {1: 2, 2: 3, 3: 4, 4: 5}, n=4, faults=1)
    expected = circuit.evaluate({i: F(v) for i, v in {1: 2, 2: 3, 3: 4, 4: 5}.items()})
    assert all(out == expected for out in result.honest_outputs().values())


def test_smpc_linear_circuit():
    circuit = mean_circuit(F, 4)
    result = run_synchronous_baseline(circuit, {1: 1, 2: 2, 3: 3, 4: 4}, n=4, faults=1)
    assert all(out == [F(10)] for out in result.honest_outputs().values())


def test_smpc_fixed_running_time():
    circuit = multiplication_circuit(F, 4)
    result = run_synchronous_baseline(circuit, {1: 1, 2: 1, 3: 1, 4: 1}, n=4, faults=1)
    times = set(result.honest_output_times().values())
    assert len(times) == 1  # lock-step rounds: everyone finishes simultaneously
    # input round + D_M multiplication rounds + output round
    assert times.pop() == pytest.approx(1.0 + circuit.multiplicative_depth + 1.0, abs=0.1)


def test_smpc_tolerates_crash_in_sync():
    circuit = mean_circuit(F, 4)
    result = run_synchronous_baseline(circuit, {1: 1, 2: 2, 3: 3, 4: 4}, n=4, faults=1,
                                      corrupt={3: CrashBehavior()})
    # The crashed party's input is treated as 0; honest parties agree.
    outputs = list(result.honest_outputs().values())
    assert all(out == [F(7)] for out in outputs)


def test_smpc_breaks_when_synchrony_violated():
    """E8: delaying a single party's messages beyond Δ makes the synchronous
    baseline compute a wrong (or inconsistent) output."""
    circuit = multiplication_circuit(F, 4)
    inputs = {1: 2, 2: 3, 3: 4, 4: 5}
    network = _delta_violated_for(2)
    result = run_synchronous_baseline(circuit, inputs, n=4, faults=1, network=network,
                                      max_time=1_000.0)
    expected = circuit.evaluate({i: F(v) for i, v in inputs.items()})
    outputs = list(result.honest_outputs().values())
    assert outputs, "baseline should still produce (wrong) outputs"
    assert any(out != expected for out in outputs)


# -- asynchronous baseline ----------------------------------------------------------------------


def test_ampc_correct_in_asynchronous_network():
    circuit = multiplication_circuit(F, 5)
    inputs = {1: 2, 2: 3, 3: 4, 4: 5, 5: 6}
    result = run_asynchronous_baseline(circuit, inputs, n=5, faults=1,
                                       network=AsynchronousNetwork(max_delay=5.0), seed=2)
    # The async baseline ignores the inputs of parties outside its core set
    # (the last t_a parties): party 5's input counts as 0 here.
    expected = circuit.evaluate({1: F(2), 2: F(3), 3: F(4), 4: F(5)})
    outputs = list(result.honest_outputs().values())
    assert len(outputs) == 5
    assert all(out == expected for out in outputs)


def test_ampc_ignores_up_to_ta_inputs():
    circuit = mean_circuit(F, 4)
    inputs = {1: 10, 2: 20, 3: 30, 4: 40}
    result = run_asynchronous_baseline(circuit, inputs, n=4, faults=0, seed=3)
    # With faults=0 the core set is everyone and nothing is lost.
    assert all(out == [F(100)] for out in result.honest_outputs().values())
    result = run_asynchronous_baseline(circuit, inputs, n=4, faults=1, seed=4,
                                       network=AsynchronousNetwork(max_delay=3.0))
    # With faults=1 the last party's input is dropped.
    assert all(out == [F(60)] for out in result.honest_outputs().values())


def test_ampc_lower_threshold_than_bobw():
    """The asynchronous baseline needs t < n/4: with n = 4 it tolerates 0 faults,
    whereas the best-of-both-worlds protocol tolerates t_s = 1 in a synchronous
    network (compare test_mpc.py)."""
    assert 4 // 4 == 1 and (4 - 1) // 4 == 0  # t_a < n/4 forces t_a = 0 at n = 4
    circuit = mean_circuit(F, 4)
    result = run_asynchronous_baseline(circuit, {1: 1, 2: 2, 3: 3, 4: 4}, n=4, faults=0,
                                       network=AsynchronousNetwork(max_delay=2.0), seed=5)
    assert all(out == [F(10)] for out in result.honest_outputs().values())


def test_ampc_eventual_termination_under_heavy_delays():
    circuit = mean_circuit(F, 5)
    result = run_asynchronous_baseline(circuit, {i: i for i in range(1, 6)}, n=5, faults=1,
                                       network=AsynchronousNetwork(max_delay=40.0), seed=6)
    assert len(result.honest_outputs()) == 5


# -- pinned transcripts (recorded from the scalar reference path) ------------------------------


def test_smpc_batch_and_scalar_runs_identical():
    circuit = multiplication_circuit(F, 4)
    inputs = {1: 2, 2: 3, 3: 4, 4: 5}
    result = run_synchronous_baseline(circuit, inputs, n=4, faults=1, seed=9)
    assert_matches_golden("smpc/multiplication/n4t1/seed9", result)


def test_smpc_batch_and_scalar_garbage_identical_under_violation():
    """Even the failure mode (synchrony violated, fallback interpolation of
    garbage) must stay bit-identical to the pinned reference run."""
    circuit = multiplication_circuit(F, 4)
    inputs = {1: 2, 2: 3, 3: 4, 4: 5}
    result = run_synchronous_baseline(
        circuit, inputs, n=4, faults=1, max_time=1_000.0, seed=9,
        network=_delta_violated_for(2),
    )
    assert_matches_golden("smpc/multiplication/n4t1/seed9/sync_violated", result)


def test_ampc_batch_and_scalar_runs_identical():
    circuit = mean_circuit(F, 4)
    result = run_asynchronous_baseline(
        circuit, {1: 10, 2: 20, 3: 30, 4: 40}, n=4, faults=1, seed=4,
        network=AsynchronousNetwork(max_delay=3.0),
    )
    assert_matches_golden("ampc/mean/n4t1/seed4", result)
