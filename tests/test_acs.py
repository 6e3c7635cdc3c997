"""Tests for ΠACS, agreement on a common subset (Lemma 5.1)."""

from repro.acs.acs import AgreementOnCommonSubset
from repro.field.polynomial import lagrange_interpolate
from repro.sim import (
    AsynchronousNetwork,
    CrashBehavior,
    Simulator,
    SynchronousNetwork,
    WrongValueBehavior,
)

from protocol_helpers import FIELD, random_polynomial, silent_in


def _run_acs(n, ts, ta, secrets, network=None, corrupt=None, seed=0, max_time=200_000.0,
             truncate_to=None):
    """Run ΠACS where party i inputs one polynomial with constant term secrets[i]."""
    sim = Simulator(n, network=network or SynchronousNetwork(), seed=seed,
                    corrupt=corrupt or {})
    polynomials = {
        pid: [random_polynomial(ts, secrets.get(pid, 0), seed=seed * 100 + pid)]
        for pid in range(1, n + 1)
    }

    def factory(party):
        return AgreementOnCommonSubset(
            party,
            "acs",
            ts=ts,
            ta=ta,
            num_polynomials=1,
            polynomials=polynomials[party.id],
            anchor=0.0,
            truncate_to=truncate_to,
        )

    result = sim.run(factory, max_time=max_time)
    return result, polynomials


def _check_shares(result, polynomials):
    """Every honest party's shares for every CS member lie on that member's polynomial."""
    for pid, output in result.honest_outputs().items():
        subset, shares = output
        for dealer in subset:
            expected = polynomials[dealer][0].evaluate(FIELD.alpha(pid))
            if dealer not in result.backend.corrupt_parties:
                assert shares[dealer][0] == expected


def test_sync_all_honest_in_common_subset():
    secrets = {1: 10, 2: 20, 3: 30, 4: 40}
    result, polys = _run_acs(4, 1, 0, secrets)
    outputs = result.honest_outputs()
    assert len(outputs) == 4
    subsets = {tuple(out[0]) for out in outputs.values()}
    assert len(subsets) == 1
    subset = list(subsets.pop())
    assert set(subset) == {1, 2, 3, 4}
    _check_shares(result, polys)


def test_sync_crashed_dealer_excluded_but_honest_included():
    secrets = {1: 1, 2: 2, 3: 3, 4: 4}
    result, polys = _run_acs(4, 1, 0, secrets, corrupt={3: CrashBehavior()})
    outputs = result.honest_outputs()
    assert len(outputs) == 3
    subset = list(outputs.values())[0][0]
    # All honest dealers are present; the crashed dealer is not.
    assert set(subset) == {1, 2, 4}
    _check_shares(result, polys)


def test_sync_silent_dealer_excluded():
    secrets = {i: i for i in range(1, 5)}
    corrupt = {2: silent_in("acs/vss[2]/")}
    result, polys = _run_acs(4, 1, 0, secrets, corrupt=corrupt, seed=2)
    outputs = result.honest_outputs()
    # Party 2 is the (corrupt) silent dealer, so only the three honest parties report.
    assert len(outputs) == 3
    subset = list(outputs.values())[0][0]
    assert {1, 3, 4} <= set(subset)
    assert 2 not in subset
    _check_shares(result, polys)


def test_sync_common_subset_is_identical_across_parties():
    secrets = {i: 5 * i for i in range(1, 5)}
    result, _ = _run_acs(4, 1, 0, secrets, corrupt={4: WrongValueBehavior(offset=2)}, seed=3)
    outputs = result.honest_outputs()
    subsets = {tuple(out[0]) for out in outputs.values()}
    assert len(subsets) == 1
    assert len(list(subsets)[0]) >= 3


def test_async_common_subset_at_least_n_minus_ts():
    secrets = {i: i * 7 for i in range(1, 6)}
    result, polys = _run_acs(5, 1, 1, secrets, network=AsynchronousNetwork(max_delay=4.0), seed=4)
    outputs = result.honest_outputs()
    assert len(outputs) == 5
    subsets = {tuple(out[0]) for out in outputs.values()}
    assert len(subsets) == 1
    assert len(list(subsets)[0]) >= 4
    _check_shares(result, polys)


def test_async_with_byzantine_party():
    secrets = {i: i for i in range(1, 6)}
    result, polys = _run_acs(5, 1, 1, secrets, network=AsynchronousNetwork(max_delay=4.0),
                             corrupt={5: WrongValueBehavior(offset=1)}, seed=5)
    outputs = result.honest_outputs()
    assert len(outputs) == 4
    subsets = {tuple(out[0]) for out in outputs.values()}
    assert len(subsets) == 1
    assert len(set(list(subsets)[0]) & {1, 2, 3, 4}) >= 3
    _check_shares(result, polys)


def test_truncation_to_n_minus_ts():
    secrets = {i: i for i in range(1, 5)}
    result, _ = _run_acs(4, 1, 0, secrets, truncate_to=3, seed=6)
    subset = list(result.honest_outputs().values())[0][0]
    assert len(subset) == 3


def test_shares_reconstruct_dealer_secrets():
    secrets = {1: 111, 2: 222, 3: 333, 4: 444}
    result, polys = _run_acs(4, 1, 0, secrets, seed=7)
    outputs = result.honest_outputs()
    subset = list(outputs.values())[0][0]
    for dealer in subset:
        points = [(FIELD.alpha(pid), outputs[pid][1][dealer][0]) for pid in sorted(outputs)[:2]]
        poly = lagrange_interpolate(FIELD, points)
        assert poly.constant_term() == FIELD(secrets[dealer])
