"""Tests for ΠVSS, the best-of-both-worlds verifiable secret sharing (Theorem 4.16)."""

import pytest

from repro.sharing.vss import VerifiableSecretSharing, vss_time_bound
from repro.sim import (
    AdversarialAsynchronousNetwork,
    AsynchronousNetwork,
    CrashBehavior,
    EquivocatingBehavior,
    SilentBehavior,
    SynchronousNetwork,
    WrongValueBehavior,
)

from protocol_helpers import (
    FIELD,
    RewriteBehavior,
    garbage_star2_dealer,
    honest_outputs_consistent,
    malformed_nok,
    random_polynomial,
    run_dealer_protocol,
    shares_match_polynomials,
)


def _run_vss(**kwargs):
    return run_dealer_protocol(VerifiableSecretSharing, **kwargs)


# -- honest dealer ----------------------------------------------------------------------------


def test_sync_correctness_honest_dealer():
    poly = random_polynomial(1, 42, seed=1)
    result = _run_vss(n=4, ts=1, ta=0, dealer=1, polynomials=[poly])
    assert len(result.honest_outputs()) == 4
    assert shares_match_polynomials(result, [poly])


def test_sync_correctness_output_time_bound():
    poly = random_polynomial(1, 8, seed=2)
    result = _run_vss(n=4, ts=1, ta=0, dealer=1, polynomials=[poly])
    bound = vss_time_bound(4, 1, 1.0)
    assert all(t <= bound + 1e-6 for t in result.honest_output_times().values())


def test_sync_correctness_two_polynomials():
    polys = [random_polynomial(1, 3, seed=3), random_polynomial(1, 4, seed=4)]
    result = _run_vss(n=4, ts=1, ta=0, dealer=2, polynomials=polys)
    assert shares_match_polynomials(result, polys)


def test_sync_correctness_with_crashed_party():
    poly = random_polynomial(1, 5, seed=5)
    result = _run_vss(n=4, ts=1, ta=0, dealer=2, polynomials=[poly],
                      corrupt={3: CrashBehavior()})
    assert len(result.honest_outputs()) == 3
    assert shares_match_polynomials(result, [poly])


def test_sync_correctness_with_lying_party():
    poly = random_polynomial(1, 6, seed=6)
    result = _run_vss(n=5, ts=1, ta=1, dealer=1, polynomials=[poly],
                      corrupt={4: WrongValueBehavior(offset=1)})
    assert len(result.honest_outputs()) == 4
    assert shares_match_polynomials(result, [poly])


def test_async_correctness_honest_dealer():
    poly = random_polynomial(1, 17, seed=7)
    result = _run_vss(n=5, ts=1, ta=1, dealer=1, polynomials=[poly],
                      network=AsynchronousNetwork(max_delay=6.0), seed=8)
    assert len(result.honest_outputs()) == 5
    assert shares_match_polynomials(result, [poly])


def test_async_correctness_with_byzantine_party():
    poly = random_polynomial(1, 23, seed=9)
    result = _run_vss(n=5, ts=1, ta=1, dealer=2, polynomials=[poly],
                      network=AsynchronousNetwork(max_delay=5.0),
                      corrupt={5: WrongValueBehavior(offset=4)}, seed=10)
    assert len(result.honest_outputs()) == 4
    assert shares_match_polynomials(result, [poly])


def test_async_correctness_with_slow_honest_party():
    poly = random_polynomial(1, 29, seed=11)
    network = AdversarialAsynchronousNetwork(slow_parties=frozenset({4}), slow_delay=30.0,
                                             fast_delay=0.3)
    result = _run_vss(n=5, ts=1, ta=1, dealer=1, polynomials=[poly], network=network,
                      seed=12, max_time=150_000.0)
    assert len(result.honest_outputs()) == 5
    assert shares_match_polynomials(result, [poly])


def test_privacy_adversary_rows_underdetermine_secret():
    poly = random_polynomial(1, 777, seed=13)
    result = _run_vss(n=4, ts=1, ta=0, dealer=1, polynomials=[poly], seed=14)
    instance = result.instances[3]
    row = instance.my_rows[0]
    # The corrupt party's single row is consistent with any candidate secret
    # (Lemma 2.2), so the protocol run leaks nothing beyond its own share.
    from repro.field.polynomial import lagrange_interpolate

    for candidate in (0, 123, 10 ** 9):
        q2 = lagrange_interpolate(
            FIELD, [(FIELD.alpha(3), row.evaluate(0)), (FIELD(0), FIELD(candidate))]
        )
        assert q2.degree <= 1


# -- corrupt dealer ----------------------------------------------------------------------------


def test_corrupt_silent_dealer_no_output():
    poly = random_polynomial(1, 5, seed=15)
    result = _run_vss(n=4, ts=1, ta=0, dealer=2, polynomials=[poly],
                      corrupt={2: SilentBehavior(lambda tag: True)}, max_time=5_000.0)
    assert len(result.honest_outputs()) == 0


def test_corrupt_dealer_strong_commitment_sync():
    """An equivocating dealer: whatever the honest parties output must be
    shares of a single degree-t_s polynomial (strong commitment)."""
    poly = random_polynomial(1, 31, seed=16)
    corrupt = {2: EquivocatingBehavior(group_b=[4], tag_predicate=lambda tag: True)}
    result = _run_vss(n=4, ts=1, ta=0, dealer=2, polynomials=[poly], corrupt=corrupt,
                      seed=17, max_time=60_000.0)
    assert honest_outputs_consistent(result, ts=1)
    # Strong commitment: if any honest party output, all honest parties do.
    outputs = result.honest_outputs()
    assert len(outputs) in (0, 3)


def test_corrupt_dealer_strong_commitment_async():
    poly = random_polynomial(1, 37, seed=18)
    corrupt = {1: WrongValueBehavior(target_recipients=[3], offset=5)}
    result = _run_vss(n=5, ts=1, ta=1, dealer=1, polynomials=[poly],
                      network=AsynchronousNetwork(max_delay=4.0), corrupt=corrupt,
                      seed=19, max_time=200_000.0)
    assert honest_outputs_consistent(result, ts=1)


def test_malformed_nok_from_corrupt_party_is_no_verdict():
    """``("NOK",)`` without index and value, in ΠVSS and in every ΠWPS under
    it: absent, not something the honest dealers' star searches may index into."""
    poly = random_polynomial(1, 41, seed=22)
    mine = r"prot/(wps\[\d\]/)?ok\[4\]"
    corrupt = {4: RewriteBehavior(entries={mine: malformed_nok}, late={mine: malformed_nok})}
    result = _run_vss(n=4, ts=1, ta=0, dealer=1, polynomials=[poly], corrupt=corrupt)
    assert len(result.honest_outputs()) == 3
    assert shares_match_polynomials(result, [poly])
    assert all((4, j) not in result.instances[1]._verdicts for j in (1, 2, 3))


def test_garbage_star2_from_corrupt_dealer_is_no_star():
    poly = random_polynomial(1, 43, seed=23)
    result = _run_vss(n=4, ts=1, ta=0, dealer=2, polynomials=[poly],
                      corrupt={2: garbage_star2_dealer()}, max_time=60_000.0)
    assert all(instance._ba_output == 1 for instance in result.instances.values())
    assert honest_outputs_consistent(result, ts=1)
    assert result.honest_outputs() == {}


def test_vss_shares_enable_robust_reconstruction():
    """The output shares form a t_s-sharing: robust reconstruction recovers q(0)."""
    from repro.sharing.shamir import robust_reconstruct

    poly = random_polynomial(1, 2024, seed=20)
    result = _run_vss(n=4, ts=1, ta=0, dealer=1, polynomials=[poly], seed=21)
    shares = {pid: out[0] for pid, out in result.honest_outputs().items()}
    assert robust_reconstruct(FIELD, shares, degree=1, max_faults=1) == FIELD(2024)
