#!/usr/bin/env python
"""Scenario: using the building blocks directly (VSS, BA, triple generation).

The library is not only an end-to-end MPC engine: every protocol from the
paper is exposed as a composable building block.  This example runs

* ΠVSS -- a dealer verifiably shares a secret, the parties robustly
  reconstruct it;
* ΠBA  -- the parties agree on a bit although their inputs disagree;
* ΠPreProcessing -- the parties generate a Beaver triple nobody knows.

Run with:  python examples/building_blocks.py
"""

import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import SynchronousNetwork, default_field
from repro.ba.bobw import BestOfBothWorldsBA
from repro.field import Polynomial
from repro.field.polynomial import interpolate_at
from repro.sharing.shamir import robust_reconstruct
from repro.sharing.vss import VerifiableSecretSharing
from repro.sim import Simulator
from repro.triples.preprocessing import Preprocessing


def demo_vss(field) -> None:
    print("[1/3] ΠVSS: dealer P1 shares the secret 20240614")
    secret = 20240614
    polynomial = Polynomial.random(field, 1, constant_term=secret, rng=random.Random(42))
    sim = Simulator(4, network=SynchronousNetwork(), seed=1)
    result = sim.run(
        lambda party: VerifiableSecretSharing(
            party, "vss", dealer=1, ts=1, ta=0, num_polynomials=1,
            polynomials=[polynomial] if party.id == 1 else None, anchor=0.0,
        ),
        max_time=100_000.0,
    )
    shares = {pid: out[0] for pid, out in result.honest_outputs().items()}
    recovered = robust_reconstruct(field, shares, degree=1, max_faults=1)
    print(f"  per-party shares computed by {len(shares)} parties")
    print(f"  robust reconstruction from the shares: {int(recovered)} (expected {secret})\n")


def demo_ba(field) -> None:
    print("[2/3] ΠBA: parties disagree (inputs 1,1,0,0) but must decide one bit")
    sim = Simulator(4, network=SynchronousNetwork(), seed=2)
    inputs = {1: 1, 2: 1, 3: 0, 4: 0}
    result = sim.run(
        lambda party: BestOfBothWorldsBA(party, "ba", faults=1, value=inputs[party.id],
                                         anchor=0.0),
        max_time=100_000.0,
    )
    outputs = result.honest_outputs()
    print(f"  decisions: {outputs}")
    print(f"  agreement: {len(set(outputs.values())) == 1}\n")


def demo_preprocessing(field) -> None:
    print("[3/3] ΠPreProcessing: generate one shared Beaver triple nobody knows")
    sim = Simulator(4, network=SynchronousNetwork(), seed=3)
    result = sim.run(
        lambda party: Preprocessing(party, "preproc", ts=1, ta=0, num_triples=1, anchor=0.0),
        max_time=800_000.0,
    )
    outputs = result.honest_outputs()
    a = interpolate_at(field, [(field.alpha(pid), out[0][0]) for pid, out in outputs.items()][:2], 0)
    b = interpolate_at(field, [(field.alpha(pid), out[0][1]) for pid, out in outputs.items()][:2], 0)
    c = interpolate_at(field, [(field.alpha(pid), out[0][2]) for pid, out in outputs.items()][:2], 0)
    print(f"  reconstructed triple (for demonstration only): a*b == c ? {a * b == c}")
    print(f"  messages simulated: {result.metrics.messages_sent:,}")
    print("\nDone.")


def main() -> None:
    field = default_field()
    demo_vss(field)
    demo_ba(field)
    demo_preprocessing(field)


if __name__ == "__main__":
    main()
