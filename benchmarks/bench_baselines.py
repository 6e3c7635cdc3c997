"""E8 -- Baseline failure modes and the best-of-both-worlds crossover.

The paper motivates the best-of-both-worlds protocol by the failure modes of
the classical designs:

* a synchronous protocol silently computes garbage when even one honest
  party's messages are delayed beyond Δ;
* an asynchronous protocol always terminates but drops up to t_a honest
  inputs and tolerates fewer corruptions.

The benchmark reproduces both failure modes and shows the best-of-both-worlds
protocol handling the same schedules correctly.
"""

import pytest

from repro.baselines import run_asynchronous_baseline, run_synchronous_baseline
from repro.circuits import mean_circuit, multiplication_circuit
from repro.field import default_field
from repro.mpc import run_mpc
from repro.sim import AdversarialAsynchronousNetwork, AsynchronousNetwork, SynchronousNetwork

F = default_field()

INPUTS4 = {1: 2, 2: 3, 3: 4, 4: 5}


def test_smpc_garbage_under_async_schedule(benchmark):
    circuit = multiplication_circuit(F, 4)
    # Synchronous except that party 3's outgoing messages take 40 Delta.
    network = AdversarialAsynchronousNetwork(slow_parties=frozenset({3}), slow_delay=40.0,
                                             fast_delay=1.0, slow_senders_only=True)

    result = benchmark.pedantic(
        lambda: run_synchronous_baseline(circuit, INPUTS4, n=4, faults=1, network=network,
                                         max_time=2_000.0),
        iterations=1, rounds=1,
    )
    expected = circuit.evaluate({i: F(v) for i, v in INPUTS4.items()})
    outputs = list(result.honest_outputs().values())
    wrong = sum(1 for out in outputs if out != expected)
    benchmark.extra_info.update({"wrong_outputs": float(wrong), "total_outputs": float(len(outputs))})
    assert wrong >= 1


def test_bobw_correct_under_same_slow_party_schedule(benchmark):
    circuit = mean_circuit(F, 4)
    # Same kind of schedule (one slow honest party), but delays are applied
    # through an asynchronous network the BoBW protocol is designed to survive.
    network = AdversarialAsynchronousNetwork(slow_parties=frozenset({3}), slow_delay=25.0,
                                             fast_delay=0.3)
    result = benchmark.pedantic(
        lambda: run_mpc(circuit, {1: 1, 2: 2, 3: 3, 4: 4}, n=4, ts=1, ta=0, seed=5,
                        network=network),
        iterations=1, rounds=1,
    )
    values = {1: 1, 2: 2, 3: 3, 4: 4}
    expected_sum = sum(values[pid] for pid in result.common_subset)
    benchmark.extra_info.update(
        {
            "agreed": float(result.agreed),
            "output_matches_cs": float(result.outputs == [F(expected_sum)]),
            "cs_size": float(len(result.common_subset)),
        }
    )
    assert result.agreed
    assert result.outputs == [F(expected_sum)]
    assert len(result.common_subset) >= 3


def test_ampc_drops_honest_inputs_bobw_does_not(benchmark):
    circuit = mean_circuit(F, 4)
    inputs = {1: 1, 2: 2, 3: 3, 4: 4}

    def run_both():
        ampc = run_asynchronous_baseline(circuit, inputs, n=4, faults=0,
                                         network=AsynchronousNetwork(max_delay=2.0), seed=6)
        bobw = run_mpc(circuit, inputs, n=4, ts=1, ta=0, seed=6)
        return ampc, bobw

    ampc, bobw = benchmark.pedantic(run_both, iterations=1, rounds=1)
    bobw_all_inputs = set(bobw.common_subset) == {1, 2, 3, 4}
    benchmark.extra_info.update(
        {
            "bobw_includes_all_honest_inputs": float(bobw_all_inputs),
            "bobw_output": int(bobw.outputs[0]),
            "ampc_output": int(list(ampc.honest_outputs().values())[0][0]),
        }
    )
    assert bobw_all_inputs
    assert bobw.outputs == [F(10)]


def smoke():
    """Tiny-size rot check used by the bench_smoke tier-1 marker."""
    circuit = multiplication_circuit(F, 4)
    result = run_synchronous_baseline(circuit, INPUTS4, n=4, faults=1,
                                      network=SynchronousNetwork())
    expected = circuit.evaluate({i: F(v) for i, v in INPUTS4.items()})
    outputs = list(result.honest_outputs().values())
    assert outputs and all(out == expected for out in outputs)
    return {"honest_outputs": len(outputs)}
