"""E3 -- Broadcast guarantees and time bound (Theorem 3.5, Lemma 2.4).

Reproduces the paper's claims about ΠACast and ΠBC: liveness/validity within
the stated time bounds in a synchronous network, O(n² ℓ) communication, and
fallback delivery in an asynchronous network.

The pytest run also persists to ``BENCH_broadcast.json`` the long-vector Acast
timing and one ``bundle_n<n>`` row per n in 4, 5, 7: what the bundles of one
synchronous ΠACS are charged (``Bundle.payload_bits``) next to the bytes
``repro.runtime.wire`` encodes them in, and what the same entries cost as
plain tuples.
"""

import random

import pytest

from repro.acs.acs import AgreementOnCommonSubset
from repro.broadcast.acast import AcastProtocol, PackedFieldVector, acast_time_bound
from repro.broadcast.bc import BroadcastCarrier, BroadcastProtocol, bc_time_bound
from repro.runtime.wire import encode_payload
from repro.sim import AsynchronousNetwork, SynchronousNetwork
from repro.sim.messages import payload_bits

from bench_common import (
    FIELD,
    best_of,
    fresh_polynomials,
    make_runner,
    record_bench,
    summarize,
)


def _run_acast(n, t, network, seed=0):
    runner = make_runner(n, network=network, seed=seed)
    return runner.run(
        lambda party: AcastProtocol(
            party, "acast", sender=1, faults=t,
            message="m" * 16 if party.id == 1 else None,
        ),
        max_time=5_000.0,
    )


def _run_bc(n, t, network, seed=0):
    runner = make_runner(n, network=network, seed=seed)
    return runner.run(
        lambda party: BroadcastProtocol(
            party, "bc", sender=1, faults=t,
            message="m" * 16 if party.id == 1 else None, anchor=0.0,
        ),
        max_time=5_000.0,
    )


@pytest.mark.parametrize("n,t", [(4, 1), (7, 2)])
def test_acast_synchronous(benchmark, n, t):
    result = benchmark.pedantic(
        lambda: _run_acast(n, t, SynchronousNetwork()), iterations=1, rounds=1
    )
    stats = summarize(result)
    stats["paper_time_bound"] = acast_time_bound(1.0)
    stats["within_bound"] = float(stats["max_output_time"] <= acast_time_bound(1.0) + 1e-6)
    benchmark.extra_info.update(stats)
    assert stats["honest_outputs"] == n
    assert stats["within_bound"] == 1.0


@pytest.mark.parametrize("n,t", [(4, 1), (7, 2)])
def test_bc_synchronous(benchmark, n, t):
    result = benchmark.pedantic(
        lambda: _run_bc(n, t, SynchronousNetwork()), iterations=1, rounds=1
    )
    stats = summarize(result)
    stats["our_time_bound"] = bc_time_bound(n, t, 1.0)
    stats["paper_time_bound"] = (12 * n - 3) * 1.0
    stats["within_bound"] = float(stats["max_output_time"] <= bc_time_bound(n, t, 1.0) + 1e-6)
    benchmark.extra_info.update(stats)
    assert stats["honest_outputs"] == n
    assert stats["within_bound"] == 1.0


@pytest.mark.parametrize("n,t", [(4, 1), (7, 2)])
def test_bc_asynchronous(benchmark, n, t):
    result = benchmark.pedantic(
        lambda: _run_bc(n, t, AsynchronousNetwork(max_delay=5.0), seed=2),
        iterations=1, rounds=1,
    )
    stats = summarize(result)
    benchmark.extra_info.update(stats)
    assert stats["honest_outputs"] == n


# -- packed field vectors through Acast -----------------------------------------------


def _run_vector_acast(n, t, length, seed=3):
    """Acast a length-``length`` field-element vector (packed on input)."""
    rng = random.Random(seed)
    vector = tuple(FIELD.random(rng) for _ in range(length))
    runner = make_runner(n, network=SynchronousNetwork(), seed=seed)
    result = runner.run(
        lambda party: AcastProtocol(
            party, "acast", sender=1, faults=t,
            message=vector if party.id == 1 else None,
        ),
        max_time=5_000.0,
    )
    for output in result.honest_outputs().values():
        assert isinstance(output, PackedFieldVector)
        assert output.elements() == list(vector), "Acast must deliver the sender's vector"
    return result


def measure_packed_payload(n=7, t=2, length=4096, repeats=1):
    """Best-of-``repeats`` wall time of a long-vector (packed) Acast."""
    best = best_of(lambda: _run_vector_acast(n, t, length), repeats)
    return {"n": float(n), "t": float(t), "length": float(length), "packed_s": best}


def test_packed_vector_acast():
    record_bench("broadcast", "packed_acast_n7_t2_len4096", measure_packed_payload())


# -- a bundle's nominal bits next to its encoded bytes ---------------------------------


def measure_bundles(n, t):
    """One ledger row: every bundle sent in one synchronous ΠACS, as charged and as encoded."""
    polynomials = {pid: fresh_polynomials(1, t, seed=3 + pid) for pid in range(1, n + 1)}
    result = make_runner(n, network=SynchronousNetwork(), seed=1).run(
        lambda party: AgreementOnCommonSubset(
            party, "acs", ts=t, ta=0, num_polynomials=1, polynomials=polynomials[party.id],
            anchor=0.0),
        max_time=300_000.0)
    bundles = [carrier._acast.message for root in result.instances.values()
               for carrier in root.party.instances.values()
               if type(carrier) is BroadcastCarrier and carrier.sender == root.me]
    heaviest = max(bundles, key=payload_bits)
    row = {
        "n": float(n), "t": float(t),
        "bundles": float(len(bundles)),
        "entries": float(sum(len(bundle.entries) for bundle in bundles)),
        "nominal_bits": float(sum(payload_bits(bundle) for bundle in bundles)),
        "encoded_bytes": float(sum(len(encode_payload(bundle)) for bundle in bundles)),
        "plain_tuple_bits": float(sum(payload_bits(bundle.entries) for bundle in bundles)),
        "heaviest_nominal_bits": float(payload_bits(heaviest)),
        "heaviest_encoded_bytes": float(len(encode_payload(heaviest))),
        "honest_bits": float(result.metrics.honest_bits),
    }
    # The accounting is the encoding: a kind byte, a length byte and a byte of
    # rounding per entry, six bytes of header per bundle.
    assert 8 * row["encoded_bytes"] <= (
        row["nominal_bits"] + 32 * row["entries"] + 64 * row["bundles"]), row
    return row


@pytest.mark.parametrize("n,t", [(4, 1), (5, 1), (7, 2)])
def test_bundle_nominal_bits_next_to_encoded_bytes(n, t):
    record_bench("broadcast", f"bundle_n{n}", measure_bundles(n, t))


def smoke():
    """Tiny-size rot check used by the bench_smoke tier-1 marker."""
    result = _run_bc(4, 1, SynchronousNetwork())
    assert len(result.honest_outputs()) == 4
    assert measure_bundles(4, 1)["nominal_bits"] > 0
    stats = measure_packed_payload(n=4, t=1, length=32)
    assert stats["packed_s"] > 0
    return summarize(result)
