"""Tests for ΠWPS, the best-of-both-worlds weak polynomial sharing (Theorem 4.8)."""

import pytest

from repro.sharing.wps import WeakPolynomialSharing, wps_time_bound
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


def _run_wps(**kwargs):
    return run_dealer_protocol(WeakPolynomialSharing, **kwargs)


# -- honest dealer -------------------------------------------------------------------------


def test_sync_correctness_honest_dealer():
    poly = random_polynomial(1, 42, seed=1)
    result = _run_wps(n=4, ts=1, ta=0, dealer=1, polynomials=[poly])
    assert len(result.honest_outputs()) == 4
    assert shares_match_polynomials(result, [poly])


def test_sync_correctness_output_time():
    poly = random_polynomial(1, 7, seed=2)
    result = _run_wps(n=4, ts=1, ta=0, dealer=1, polynomials=[poly])
    bound = wps_time_bound(4, 1, 1.0)
    assert all(t <= bound + 1e-6 for t in result.honest_output_times().values())


def test_sync_correctness_multiple_polynomials():
    polys = [random_polynomial(1, 10 + i, seed=3 + i) for i in range(3)]
    result = _run_wps(n=4, ts=1, ta=0, dealer=2, polynomials=polys)
    assert shares_match_polynomials(result, polys)


def test_sync_correctness_with_crashed_party():
    poly = random_polynomial(1, 9, seed=5)
    result = _run_wps(n=4, ts=1, ta=0, dealer=1, polynomials=[poly],
                      corrupt={3: CrashBehavior()})
    assert len(result.honest_outputs()) == 3
    assert shares_match_polynomials(result, [poly])


def test_sync_correctness_with_lying_party():
    poly = random_polynomial(1, 11, seed=6)
    result = _run_wps(n=5, ts=1, ta=1, dealer=1, polynomials=[poly],
                      corrupt={4: WrongValueBehavior(offset=3)})
    assert len(result.honest_outputs()) == 4
    assert shares_match_polynomials(result, [poly])


def test_async_correctness_honest_dealer():
    poly = random_polynomial(1, 33, seed=7)
    result = _run_wps(n=5, ts=1, ta=1, dealer=1, polynomials=[poly],
                      network=AsynchronousNetwork(max_delay=6.0), seed=8)
    assert len(result.honest_outputs()) == 5
    assert shares_match_polynomials(result, [poly])


def test_async_correctness_with_slow_honest_party():
    poly = random_polynomial(1, 21, seed=9)
    network = AdversarialAsynchronousNetwork(slow_parties=frozenset({5}), slow_delay=40.0,
                                             fast_delay=0.3)
    result = _run_wps(n=5, ts=1, ta=1, dealer=1, polynomials=[poly], network=network, seed=10)
    assert len(result.honest_outputs()) == 5
    assert shares_match_polynomials(result, [poly])


def test_privacy_adversary_view_underdetermines_secret():
    """The (static) corrupt party's received rows never determine q(0)."""
    poly = random_polynomial(1, 12345, seed=11)
    result = _run_wps(n=4, ts=1, ta=0, dealer=1, polynomials=[poly], seed=12)
    # Party 4 plays the adversary's role: its view is its row q_4(x), i.e. a
    # single univariate polynomial; by Lemma 2.2 every candidate secret is
    # consistent with it.
    instance = result.instances[4]
    row = instance.my_rows[0]
    from repro.field.polynomial import lagrange_interpolate

    for candidate in (0, 1, 999):
        # A degree-1 polynomial through (alpha_4, row(0)) and (0, candidate).
        q2 = lagrange_interpolate(
            FIELD, [(FIELD.alpha(4), row.evaluate(0)), (FIELD(0), FIELD(candidate))]
        )
        assert q2.evaluate(FIELD.alpha(4)) == row.evaluate(0)


# -- corrupt dealer -------------------------------------------------------------------------


def test_corrupt_silent_dealer_no_output():
    poly = random_polynomial(1, 5, seed=13)
    result = _run_wps(n=4, ts=1, ta=0, dealer=2, polynomials=[poly],
                      corrupt={2: SilentBehavior(lambda tag: True)}, max_time=5_000.0)
    assert len(result.honest_outputs()) == 0


def test_corrupt_dealer_weak_commitment_sync():
    """A dealer distributing perturbed rows to one party: any produced
    honest outputs must still lie on a single degree-ts polynomial."""
    poly = random_polynomial(1, 50, seed=14)
    corrupt = {2: EquivocatingBehavior(group_b=[4], tag_predicate=lambda tag: True)}
    result = _run_wps(n=4, ts=1, ta=0, dealer=2, polynomials=[poly], corrupt=corrupt,
                      seed=15, max_time=20_000.0)
    assert honest_outputs_consistent(result, ts=1)


class _ToP4(RewriteBehavior):
    """A :class:`RewriteBehavior` whose edits reach P_4 only."""

    def filter_send(self, party, message):
        return super().filter_send(party, message) if message.recipient == 4 else [message]


def test_corrupt_dealer_perturbing_only_the_rows_to_one_party_weak_commitment_sync():
    """The dealer perturbs the rows it sends P_4 and nothing else (its own
    points included): the rows are the ``polys`` entries of the dealer's post
    messages.  Every honest party judges P_4 inconsistent with it, and any
    honest outputs still lie on one degree-t_s polynomial."""
    poly = random_polynomial(1, 50, seed=14)
    perturb = WrongValueBehavior(offset=1)._perturb
    corrupt = {2: _ToP4(posts={"prot": lambda kind, value:
                               perturb(value) if kind == "polys" else value})}
    result = _run_wps(n=4, ts=1, ta=0, dealer=2, polynomials=[poly], corrupt=corrupt,
                      seed=15, max_time=20_000.0)
    for pid in (1, 3):
        assert result.instances[pid]._verdicts[(pid, 4)][0] == "NOK"
        assert result.instances[4]._verdicts[(4, pid)][0] == "NOK"
    assert honest_outputs_consistent(result, ts=1)


def test_corrupt_dealer_strong_commitment_async():
    poly = random_polynomial(1, 60, seed=16)
    corrupt = {1: WrongValueBehavior(target_recipients=[5], offset=2)}
    result = _run_wps(n=5, ts=1, ta=1, dealer=1, polynomials=[poly],
                      network=AsynchronousNetwork(max_delay=4.0), corrupt=corrupt,
                      seed=17, max_time=60_000.0)
    # If any honest party output, the outputs are consistent shares.
    assert honest_outputs_consistent(result, ts=1)


def test_malformed_nok_from_corrupt_party_is_no_verdict():
    """``("NOK",)`` without index and value is absent, not something the honest
    dealer's star search (or anyone's NOK-conflict check) may index into."""
    poly = random_polynomial(1, 77, seed=21)
    corrupt = {4: RewriteBehavior(entries={r"prot/ok\[4\]": malformed_nok},
                                  late={r"prot/ok\[4\]": malformed_nok})}
    result = _run_wps(n=4, ts=1, ta=0, dealer=1, polynomials=[poly], corrupt=corrupt)
    assert len(result.honest_outputs()) == 3
    assert shares_match_polynomials(result, [poly])
    assert all((4, j) not in result.instances[1]._verdicts for j in (1, 2, 3))


def test_garbage_star2_from_corrupt_dealer_is_no_star():
    """A ``star2`` value that is not a pair of party-id sets is ignored by
    every honest party (as ``_validate_star_triplet`` always did for ``star``)."""
    poly = random_polynomial(1, 78, seed=22)
    result = _run_wps(n=4, ts=1, ta=0, dealer=2, polynomials=[poly],
                      corrupt={2: garbage_star2_dealer()}, max_time=20_000.0)
    assert all(instance._ba_output == 1 for instance in result.instances.values())
    assert honest_outputs_consistent(result, ts=1)
    assert result.honest_outputs() == {}


def test_wps_n7_ts2_honest_dealer():
    polys = [random_polynomial(2, 100, seed=18)]
    result = _run_wps(n=7, ts=2, ta=0, dealer=3, polynomials=polys, seed=19)
    assert len(result.honest_outputs()) == 7
    assert shares_match_polynomials(result, polys)


def test_communication_reported():
    poly = random_polynomial(1, 1, seed=20)
    result = _run_wps(n=4, ts=1, ta=0, dealer=1, polynomials=[poly])
    assert result.metrics.honest_bits > 0
    assert result.metrics.messages_sent > 100
