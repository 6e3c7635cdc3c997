"""Integration tests for ΠTripSh and ΠPreProcessing on the full protocol stack.

These run the complete chain (VSS + ACS + BA + Beaver) and are therefore the
slowest tests in the suite; they use n = 4 and a single triple per dealer.
"""

import pytest

from repro.field import default_field
from repro.field.polynomial import interpolate_at
from repro.sim import (
    AsynchronousNetwork,
    CrashBehavior,
    Simulator,
    SynchronousNetwork,
    WrongValueBehavior,
)
from repro.triples.preprocessing import Preprocessing, extraction_yield, triples_per_dealer
from repro.triples.sharing import TripleSharing

F = default_field()


def _reconstruct(shares_by_party, degree):
    points = [(F.alpha(pid), value) for pid, value in shares_by_party.items()]
    return interpolate_at(F, points[: degree + 1], 0)


def _check_triples(result, ts, count=None):
    outputs = result.honest_outputs()
    assert outputs, "no honest outputs"
    lengths = {len(out) for out in outputs.values()}
    assert len(lengths) == 1
    total = lengths.pop()
    if count is not None:
        assert total >= count
    for index in range(total):
        a = _reconstruct({pid: out[index][0] for pid, out in outputs.items()}, ts)
        b = _reconstruct({pid: out[index][1] for pid, out in outputs.items()}, ts)
        c = _reconstruct({pid: out[index][2] for pid, out in outputs.items()}, ts)
        assert a * b == c
    return total


def test_extraction_yield_and_per_dealer_counts():
    assert extraction_yield(4, 1) == 1
    assert extraction_yield(7, 2) == 1
    assert extraction_yield(10, 2) == 2
    assert triples_per_dealer(4, 1, 3) == 3
    assert triples_per_dealer(10, 2, 3) == 2
    assert triples_per_dealer(4, 1, 0) == 1


def test_triple_sharing_honest_dealer_sync():
    sim = Simulator(4, network=SynchronousNetwork(), seed=1)

    def factory(party):
        return TripleSharing(party, "tripsh", dealer=1, ts=1, ta=0, num_triples=1, anchor=0.0)

    result = sim.run(factory, max_time=500_000.0)
    assert len(result.honest_outputs()) == 4
    _check_triples(result, ts=1, count=1)


def test_triple_sharing_honest_dealer_with_crashed_party():
    sim = Simulator(4, network=SynchronousNetwork(), seed=2,
                    corrupt={4: CrashBehavior()})

    def factory(party):
        return TripleSharing(party, "tripsh", dealer=2, ts=1, ta=0, num_triples=1, anchor=0.0)

    result = sim.run(factory, max_time=500_000.0)
    assert len(result.honest_outputs()) == 3
    _check_triples(result, ts=1, count=1)


def test_triple_sharing_corrupt_dealer_bad_triple_discarded():
    """A dealer sharing a non-multiplication triple is publicly discarded and
    replaced by the default (0, 0, 0) sharing -- still a valid triple."""
    bad_triples = [(F(2), F(3), F(7))]  # 2*3 != 7
    sim = Simulator(4, network=SynchronousNetwork(), seed=3)

    def factory(party):
        return TripleSharing(
            party, "tripsh", dealer=1, ts=1, ta=0, num_triples=1, anchor=0.0,
            dealer_triples=bad_triples * 3 if party.id == 1 else None,
        )

    result = sim.run(factory, max_time=500_000.0)
    outputs = result.honest_outputs()
    assert len(outputs) == 4
    for index in range(1):
        a = _reconstruct({pid: out[index][0] for pid, out in outputs.items()}, 1)
        b = _reconstruct({pid: out[index][1] for pid, out in outputs.items()}, 1)
        c = _reconstruct({pid: out[index][2] for pid, out in outputs.items()}, 1)
        assert a * b == c
        assert (int(a), int(b), int(c)) == (0, 0, 0)


def test_preprocessing_sync():
    sim = Simulator(4, network=SynchronousNetwork(), seed=4)

    def factory(party):
        return Preprocessing(party, "preproc", ts=1, ta=0, num_triples=1, anchor=0.0)

    result = sim.run(factory, max_time=800_000.0)
    assert len(result.honest_outputs()) == 4
    _check_triples(result, ts=1, count=1)


def test_preprocessing_sync_with_byzantine_party():
    sim = Simulator(4, network=SynchronousNetwork(), seed=5,
                    corrupt={3: WrongValueBehavior(offset=2)})

    def factory(party):
        return Preprocessing(party, "preproc", ts=1, ta=0, num_triples=1, anchor=0.0)

    result = sim.run(factory, max_time=800_000.0)
    assert len(result.honest_outputs()) == 3
    _check_triples(result, ts=1, count=1)


@pytest.mark.slow
def test_preprocessing_async():
    sim = Simulator(4, network=AsynchronousNetwork(max_delay=4.0), seed=6)

    def factory(party):
        return Preprocessing(party, "preproc", ts=1, ta=0, num_triples=1, anchor=0.0)

    result = sim.run(factory, max_time=800_000.0)
    assert len(result.honest_outputs()) == 4
    _check_triples(result, ts=1, count=1)
