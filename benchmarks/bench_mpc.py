"""E6 -- End-to-end MPC correctness and running time (Theorem 7.1).

Runs ΠCirEval on representative circuits in both network types, checks the
output against the plaintext evaluation, that every honest party's input is
included in a synchronous network, and compares the simulated completion
time with the time-bound formula.
"""

import pytest

from repro.analysis import paper_cir_eval_time
from repro.circuits import mean_circuit, millionaires_product_circuit, multiplication_circuit
from repro.field import default_field
from repro.mpc import run_mpc
from repro.mpc.protocol import cir_eval_time_bound
from repro.sim import AsynchronousNetwork, CrashBehavior, SynchronousNetwork

F = default_field()


def test_mpc_product_sync(benchmark):
    n, ts, ta = 4, 1, 0
    circuit = multiplication_circuit(F, n)
    inputs = {1: 3, 2: 5, 3: 7, 4: 11}

    result = benchmark.pedantic(
        lambda: run_mpc(circuit, inputs, n=n, ts=ts, ta=ta, seed=1), iterations=1, rounds=1
    )
    expected = circuit.evaluate({i: F(v) for i, v in inputs.items()})
    max_time = max(result.output_times.values())
    benchmark.extra_info.update(
        {
            "output_correct": float(result.outputs == expected),
            "all_honest_in_cs": float(set(result.common_subset) == {1, 2, 3, 4}),
            "max_output_time": max_time,
            "our_time_bound": cir_eval_time_bound(n, ts, circuit.multiplicative_depth, 1.0),
            "paper_time_bound": paper_cir_eval_time(n, circuit.multiplicative_depth, 1.0),
            "honest_bits": float(result.metrics.honest_bits),
            "messages": float(result.metrics.messages_sent),
        }
    )
    assert result.outputs == expected
    assert max_time <= cir_eval_time_bound(n, ts, circuit.multiplicative_depth, 1.0)


def test_mpc_deeper_circuit_sync(benchmark):
    n, ts, ta = 4, 1, 0
    circuit = millionaires_product_circuit(F, n)
    inputs = {1: 2, 2: 3, 3: 4, 4: 5}
    result = benchmark.pedantic(
        lambda: run_mpc(circuit, inputs, n=n, ts=ts, ta=ta, seed=2), iterations=1, rounds=1
    )
    expected = circuit.evaluate({i: F(v) for i, v in inputs.items()})
    benchmark.extra_info.update(
        {
            "output_correct": float(result.outputs == expected),
            "honest_bits": float(result.metrics.honest_bits),
        }
    )
    assert result.outputs == expected


def test_mpc_crash_fault_sync(benchmark):
    n, ts, ta = 4, 1, 0
    circuit = mean_circuit(F, n)
    inputs = {1: 10, 2: 20, 3: 30, 4: 40}
    result = benchmark.pedantic(
        lambda: run_mpc(circuit, inputs, n=n, ts=ts, ta=ta, seed=3,
                        corrupt={2: CrashBehavior()}),
        iterations=1, rounds=1,
    )
    benchmark.extra_info.update(
        {
            "output_correct": float(result.outputs == [F(80)]),
            "crashed_party_excluded": float(2 not in result.common_subset),
        }
    )
    assert result.outputs == [F(80)]


def test_mpc_product_async(benchmark):
    n, ts, ta = 4, 1, 0
    circuit = multiplication_circuit(F, n)
    inputs = {1: 2, 2: 3, 3: 4, 4: 5}
    result = benchmark.pedantic(
        lambda: run_mpc(circuit, inputs, n=n, ts=ts, ta=ta, seed=4,
                        network=AsynchronousNetwork(max_delay=3.0)),
        iterations=1, rounds=1,
    )
    # In an asynchronous network up to t_s inputs may lawfully be replaced by
    # the default 0: the reference output uses 0 for parties outside CS.
    effective = {pid: (inputs[pid] if pid in result.common_subset else 0) for pid in inputs}
    expected = circuit.evaluate({pid: F(v) for pid, v in effective.items()})
    benchmark.extra_info.update(
        {
            "output_correct": float(result.outputs == expected),
            "cs_size": float(len(result.common_subset)),
            "agreed": float(result.agreed),
        }
    )
    assert result.agreed
    assert result.outputs == expected


def smoke():
    """Tiny-size rot check used by the bench_smoke tier-1 marker."""
    circuit = multiplication_circuit(F, 4)
    inputs = {1: 3, 2: 5, 3: 7, 4: 11}
    result = run_mpc(circuit, inputs, n=4, ts=1, ta=0, seed=1)
    assert result.outputs == circuit.evaluate({i: F(v) for i, v in inputs.items()})
    return {"max_output_time": max(result.output_times.values())}
