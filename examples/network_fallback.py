#!/usr/bin/env python
"""Scenario: why best-of-both-worlds matters -- the network-fallback demo.

Four organisations jointly compute an aggregate while one participant's
network link silently degrades (its messages take 40x longer than the
assumed bound Delta).  A classical synchronous MPC protocol silently
computes garbage; the best-of-both-worlds protocol still terminates with a
correct, agreed output -- exactly the failure mode the paper's introduction
describes (experiments E1/E8 in DESIGN.md).

The demo closes with the same circuit executed on both execution backends
(the deterministic simulator and the concurrent asyncio party runtime) with
a wall-clock comparison -- the protocol code is identical, only the runtime
underneath changes.

Run with:  python examples/network_fallback.py
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import default_field, run_mpc
from repro.baselines import run_synchronous_baseline
from repro.circuits import multiplication_circuit
from repro.sim import AdversarialAsynchronousNetwork


def main() -> None:
    field = default_field()
    n = 4
    inputs = {1: 2, 2: 3, 3: 4, 4: 5}
    circuit = multiplication_circuit(field, n)
    expected = circuit.evaluate({i: field(v) for i, v in inputs.items()})[0]

    print("=== Network-fallback demo: slow honest party 3 ===")
    print(f"inputs: {inputs}, true product = {int(expected)}\n")

    print("[1/3] classical synchronous MPC baseline (trusts Delta)")
    # Synchronous except that party 3's outgoing messages take 40 Delta.
    bad_network = AdversarialAsynchronousNetwork(slow_parties=frozenset({3}), slow_delay=40.0,
                                                 fast_delay=1.0, slow_senders_only=True)
    baseline = run_synchronous_baseline(circuit, inputs, n=n, faults=1, network=bad_network,
                                        max_time=2_000.0)
    outputs = baseline.honest_outputs()
    wrong = sum(1 for out in outputs.values() if out[0] != expected)
    print(f"  outputs produced      : {len(outputs)}")
    print(f"  wrong outputs         : {wrong}  <-- the baseline silently fails")

    print("\n[2/3] best-of-both-worlds protocol under the same kind of degradation")
    network = AdversarialAsynchronousNetwork(slow_parties=frozenset({3}), slow_delay=25.0,
                                             fast_delay=0.3)
    result = run_mpc(circuit, inputs, n=n, ts=1, ta=0, seed=7, network=network)
    included = result.common_subset
    # A party outside the common subset contributes the default input 0.
    effective = {pid: (inputs[pid] if pid in included else 0) for pid in inputs}
    reference = circuit.evaluate({pid: field(v) for pid, v in effective.items()})[0]
    print(f"  agreed output         : {int(result.outputs[0])}")
    print(f"  contributing parties  : {included} (excluded parties count as input 0)")
    print(f"  output matches the agreed effective inputs: {result.outputs[0] == reference}")
    print(f"  honest parties agree  : {result.agreed}")
    print("\n[3/3] one protocol, two execution backends (healthy network)")
    start = time.perf_counter()
    on_sim = run_mpc(circuit, inputs, n=n, ts=1, ta=0, seed=7)
    sim_wall = time.perf_counter() - start
    start = time.perf_counter()
    on_asyncio = run_mpc(
        circuit, inputs, n=n, ts=1, ta=0, seed=7,
        backend="asyncio", clock="real", time_scale=0.0002,
    )
    asyncio_wall = time.perf_counter() - start
    # Real-clock scheduling is nondeterministic: a party can lawfully miss
    # the input cut and contribute 0, so each run is judged against its own
    # agreed effective inputs (both runs normally include everyone).
    def correct(result):
        included = result.common_subset or []
        eff = {pid: (inputs[pid] if pid in included else 0) for pid in inputs}
        return result.agreed and result.outputs == circuit.evaluate(
            {pid: field(v) for pid, v in eff.items()}
        )

    print(f"  sim backend (discrete events)   : output {int(on_sim.outputs[0])}, "
          f"wall {sim_wall * 1000:7.1f} ms")
    print(f"  asyncio backend (real clock)    : output {int(on_asyncio.outputs[0])}, "
          f"wall {asyncio_wall * 1000:7.1f} ms")
    print(f"  backends agree: {correct(on_sim) and correct(on_asyncio)}")

    print("\nThe best-of-both-worlds protocol never trusts the synchrony bound for")
    print("safety: a slow (or partitioned) honest party can delay or lose its input,")
    print("but it can never make honest parties accept an inconsistent or wrong result.")


if __name__ == "__main__":
    main()
