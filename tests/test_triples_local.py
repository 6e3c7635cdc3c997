"""Tests for the triple-generation building blocks that operate on existing
sharings: public reconstruction, ΠBeaver, ΠTripTrans and ΠTripExt.

These tests construct t_s-sharings directly (via the Shamir helpers) and run
only the protocol under test, which keeps them fast while still exercising
the real message-passing code paths.
"""

import random

import pytest

from repro.field import default_field
from repro.field.polynomial import interpolate_at
from repro.sharing.shamir import share_secret
from repro.sim import Simulator, SynchronousNetwork, AsynchronousNetwork, WrongValueBehavior
from repro.triples.beaver import BeaverMultiplication
from repro.triples.extraction import TripleExtraction
from repro.triples.reconstruction import PublicReconstruction
from repro.triples.transform import TripleTransformation, extend_shares

F = default_field()


def _shared(value, degree, n, seed):
    return share_secret(F, value, degree, n, rng=random.Random(seed))


def _shared_triple(a, b, degree, n, seed):
    return (
        _shared(a, degree, n, seed),
        _shared(b, degree, n, seed + 1),
        _shared(a * b, degree, n, seed + 2),
    )


def _reconstruct(shares_by_party, degree):
    points = [(F.alpha(pid), value) for pid, value in shares_by_party.items()]
    return interpolate_at(F, points[: degree + 1], 0)


# -- PublicReconstruction -----------------------------------------------------------------------


def test_public_reconstruction_batch():
    n, ts = 4, 1
    values = [11, 22, 33]
    sharings = [_shared(v, ts, n, 10 + i) for i, v in enumerate(values)]
    sim = Simulator(n, network=SynchronousNetwork())

    def factory(party):
        return PublicReconstruction(
            party, "rec", degree=ts, faults=ts,
            shares=[s.share_of(party.id) for s in sharings],
        )

    result = sim.run(factory)
    for output in result.honest_outputs().values():
        assert [int(v) for v in output] == values


def test_public_reconstruction_tolerates_wrong_shares():
    n, ts = 4, 1
    sharing = _shared(99, ts, n, 3)
    sim = Simulator(n, network=SynchronousNetwork(),
                    corrupt={2: WrongValueBehavior(offset=5)})

    def factory(party):
        return PublicReconstruction(party, "rec", degree=ts, faults=ts,
                                    shares=[sharing.share_of(party.id)])

    result = sim.run(factory)
    for output in result.honest_outputs().values():
        assert output[0] == F(99)


def test_public_reconstruction_late_input():
    n, ts = 4, 1
    sharing = _shared(5, ts, n, 4)
    sim = Simulator(n, network=SynchronousNetwork())
    instances = {}
    for pid, party in sim.parties.items():
        instances[pid] = PublicReconstruction(party, "rec", degree=ts, faults=ts)
    for inst in instances.values():
        inst.start()
    for pid, inst in instances.items():
        sim.schedule_timer(
            1.0, lambda inst=inst, pid=pid: inst.provide_input([sharing.share_of(pid)])
        )
    sim.run_until(until=lambda: all(i.has_output for i in instances.values()),
                         max_time=100.0)
    assert all(inst.output[0] == F(5) for inst in instances.values())


# -- ΠBeaver ---------------------------------------------------------------------------------------


@pytest.mark.parametrize("network", [SynchronousNetwork(), AsynchronousNetwork(max_delay=3.0)])
def test_beaver_multiplication_correct(network):
    n, ts = 4, 1
    x = _shared(6, ts, n, 20)
    y = _shared(7, ts, n, 21)
    a, b, c = _shared_triple(13, 17, ts, n, 22)
    sim = Simulator(n, network=network, seed=1)

    def factory(party):
        job = (x.share_of(party.id), y.share_of(party.id),
               a.share_of(party.id), b.share_of(party.id), c.share_of(party.id))
        return BeaverMultiplication(party, "beaver", ts=ts, jobs=[job])

    result = sim.run(factory)
    shares = {pid: out[0] for pid, out in result.honest_outputs().items()}
    assert _reconstruct(shares, ts) == F(42)


def test_beaver_batch_of_multiplications():
    n, ts = 4, 1
    pairs = [(2, 3), (5, 8), (100, 0)]
    xs = [_shared(p[0], ts, n, 30 + i) for i, p in enumerate(pairs)]
    ys = [_shared(p[1], ts, n, 40 + i) for i, p in enumerate(pairs)]
    triples = [_shared_triple(7 + i, 9 + i, ts, n, 50 + 3 * i) for i in range(len(pairs))]
    sim = Simulator(n, network=SynchronousNetwork())

    def factory(party):
        jobs = []
        for i in range(len(pairs)):
            a, b, c = triples[i]
            jobs.append((xs[i].share_of(party.id), ys[i].share_of(party.id),
                         a.share_of(party.id), b.share_of(party.id), c.share_of(party.id)))
        return BeaverMultiplication(party, "beaver", ts=ts, jobs=jobs)

    result = sim.run(factory)
    for index, (px, py) in enumerate(pairs):
        shares = {pid: out[index] for pid, out in result.honest_outputs().items()}
        assert _reconstruct(shares, ts) == F(px * py)


def test_beaver_wrong_triple_gives_wrong_product():
    """z = x*y holds iff (a, b, c) is a multiplication triple (Lemma 6.1)."""
    n, ts = 4, 1
    x = _shared(3, ts, n, 60)
    y = _shared(4, ts, n, 61)
    a = _shared(5, ts, n, 62)
    b = _shared(6, ts, n, 63)
    c = _shared(31, ts, n, 64)  # 31 != 30, not a multiplication triple
    sim = Simulator(n, network=SynchronousNetwork())

    def factory(party):
        job = (x.share_of(party.id), y.share_of(party.id),
               a.share_of(party.id), b.share_of(party.id), c.share_of(party.id))
        return BeaverMultiplication(party, "beaver", ts=ts, jobs=[job])

    result = sim.run(factory)
    shares = {pid: out[0] for pid, out in result.honest_outputs().items()}
    assert _reconstruct(shares, ts) == F(13)  # 12 + (31 - 30)


# -- ΠTripTrans ---------------------------------------------------------------------------------------


def test_triple_transformation_properties():
    n, ts, d = 4, 1, 1
    input_triples = [
        (2, 3), (4, 5), (6, 7),
    ]
    sharings = [_shared_triple(a, b, ts, n, 70 + 3 * i) for i, (a, b) in enumerate(input_triples)]
    sim = Simulator(n, network=SynchronousNetwork())

    def factory(party):
        triples = [
            (a.share_of(party.id), b.share_of(party.id), c.share_of(party.id))
            for a, b, c in sharings
        ]
        return TripleTransformation(party, "trans", ts=ts, d=d, groups=[triples])

    result = sim.run(factory)
    outputs = {pid: out[0] for pid, out in result.honest_outputs().items()}
    # Reconstruct the transformed triples and check X, Y, Z polynomial structure.
    transformed = []
    for index in range(2 * d + 1):
        x = _reconstruct({pid: out[index][0] for pid, out in outputs.items()}, ts)
        y = _reconstruct({pid: out[index][1] for pid, out in outputs.items()}, ts)
        z = _reconstruct({pid: out[index][2] for pid, out in outputs.items()}, 2 * ts)
        transformed.append((x, y, z))
    # Every transformed triple is a multiplication triple (inputs all were).
    for x, y, z in transformed:
        assert x * y == z
    # The first d+1 triples are the original ones.
    for i in range(d + 1):
        a, b = input_triples[i]
        assert transformed[i][0] == F(a)
        assert transformed[i][1] == F(b)
    # X and Y have degree <= d through the 2d+1 points (check via interpolation).
    xs_points = [(F.alpha(i + 1), transformed[i][0]) for i in range(d + 1)]
    assert interpolate_at(F, xs_points, F.alpha(2 * d + 1)) == transformed[2 * d][0]


def test_triple_transformation_bad_input_triple_propagates():
    """(x(i), y(i), z(i)) is a multiplication triple iff the input triple is."""
    n, ts, d = 4, 1, 1
    good = _shared_triple(2, 3, ts, n, 80)
    bad = (_shared(4, ts, n, 83), _shared(5, ts, n, 84), _shared(99, ts, n, 85))
    good2 = _shared_triple(6, 7, ts, n, 86)
    sharings = [good, bad, good2]
    sim = Simulator(n, network=SynchronousNetwork())

    def factory(party):
        triples = [
            (a.share_of(party.id), b.share_of(party.id), c.share_of(party.id))
            for a, b, c in sharings
        ]
        return TripleTransformation(party, "trans", ts=ts, d=d, groups=[triples])

    result = sim.run(factory)
    outputs = {pid: out[0] for pid, out in result.honest_outputs().items()}
    x = _reconstruct({pid: out[1][0] for pid, out in outputs.items()}, ts)
    y = _reconstruct({pid: out[1][1] for pid, out in outputs.items()}, ts)
    z = _reconstruct({pid: out[1][2] for pid, out in outputs.items()}, 2 * ts)
    assert x * y != z


def test_triple_transformation_requires_odd_count():
    sim = Simulator(4, network=SynchronousNetwork())
    party = sim.parties[1]
    sharing = _shared_triple(1, 2, 1, 4, 90)
    triples = [(sharing[0].share_of(1), sharing[1].share_of(1), sharing[2].share_of(1))] * 2
    instance = TripleTransformation(party, "trans", ts=1, d=1, groups=[triples])
    with pytest.raises(ValueError):
        instance.start()


def test_extend_shares_matches_polynomial_evaluation():
    n, ts = 4, 1
    values = [5, 9]
    sharings = [_shared(v, ts, n, 95 + i) for i, v in enumerate(values)]
    # The underlying degree-1 polynomial through (alpha_1, 5), (alpha_2, 9).
    party_shares = [sharings[i].share_of(1) for i in range(2)]
    extended = extend_shares(F, party_shares, 1, F.alpha(3))
    # Check against reconstructing the extended sharing from all parties.
    all_extended = {
        pid: extend_shares(F, [sharings[i].share_of(pid) for i in range(2)], 1, F.alpha(3))
        for pid in range(1, n + 1)
    }
    value = _reconstruct(all_extended, ts)
    expected = interpolate_at(F, [(F.alpha(1), F(5)), (F.alpha(2), F(9))], F.alpha(3))
    assert value == expected
    assert all_extended[1] == extended


# -- ΠTripExt -----------------------------------------------------------------------------------------


def test_triple_extraction_outputs_multiplication_triples():
    n, ts = 4, 1
    d = 1
    sharings = [_shared_triple(3 + i, 5 + i, ts, n, 100 + 3 * i) for i in range(2 * d + 1)]
    sim = Simulator(n, network=SynchronousNetwork())

    def factory(party):
        triples = [
            (a.share_of(party.id), b.share_of(party.id), c.share_of(party.id))
            for a, b, c in sharings
        ]
        return TripleExtraction(party, "ext", ts=ts, d=d, groups=[triples])

    result = sim.run(factory)
    outputs = {pid: out[0] for pid, out in result.honest_outputs().items()}
    count = d + 1 - ts
    assert all(len(out) == count for out in outputs.values())
    for index in range(count):
        a = _reconstruct({pid: out[index][0] for pid, out in outputs.items()}, ts)
        b = _reconstruct({pid: out[index][1] for pid, out in outputs.items()}, ts)
        c = _reconstruct({pid: out[index][2] for pid, out in outputs.items()}, 2 * ts)
        assert a * b == c


def test_triple_extraction_larger_committee():
    n, ts = 7, 2
    d = 2
    sharings = [_shared_triple(2 + i, 3 + i, ts, n, 120 + 3 * i) for i in range(2 * d + 1)]
    sim = Simulator(n, network=SynchronousNetwork())

    def factory(party):
        triples = [
            (a.share_of(party.id), b.share_of(party.id), c.share_of(party.id))
            for a, b, c in sharings
        ]
        return TripleExtraction(party, "ext", ts=ts, d=d, groups=[triples])

    result = sim.run(factory)
    outputs = {pid: out[0] for pid, out in result.honest_outputs().items()}
    for index in range(d + 1 - ts):
        a = _reconstruct({pid: out[index][0] for pid, out in outputs.items()}, ts)
        b = _reconstruct({pid: out[index][1] for pid, out in outputs.items()}, ts)
        c = _reconstruct({pid: out[index][2] for pid, out in outputs.items()}, 2 * ts)
        assert a * b == c


# -- one ΠBeaver for many groups ----------------------------------------------------------------


@pytest.mark.parametrize("cls", [TripleTransformation, TripleExtraction])
def test_batching_groups_changes_no_value(cls):
    """Three groups through one instance (one ΠBeaver, one reconstruction)
    give, group by group, element-wise what a one-group instance gives; the
    middle group holds a non-multiplication triple, so a mix-up would show."""
    n, ts, d = 7, 2, 2
    groups = [
        [_shared_triple(2 + 3 * g + i, 5 + g + i, ts, n, 200 + 30 * g + 3 * i)
         for i in range(2 * d + 1)]
        for g in range(3)
    ]
    groups[1][3] = (_shared(4, ts, n, 290), _shared(5, ts, n, 291), _shared(21, ts, n, 292))

    def run(chosen):
        def factory(party):
            return cls(party, "batch", ts=ts, d=d, groups=[
                [(a.share_of(party.id), b.share_of(party.id), c.share_of(party.id))
                 for a, b, c in group] for group in chosen])
        return Simulator(n, network=SynchronousNetwork(), seed=3).run(factory).honest_outputs()

    batched = run(groups)
    for g, group in enumerate(groups):
        alone = run([group])
        for pid, out in batched.items():
            assert len(out) == 3
            assert out[g] == alone[pid][0]
