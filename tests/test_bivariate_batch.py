"""Batched bivariate layer vs the scalar reference twin.

Property-based equivalence for :class:`~repro.field.bivariate.BatchSymmetricBivariate`
(mirroring ``tests/test_field_array.py``), its error paths, and whole-protocol
regressions pinning WPS/VSS runs -- including the verdicts published against
an adversarial dealer -- to golden digests recorded from the scalar
reference path before protocol code stopped carrying it.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.field.bivariate import BatchSymmetricBivariate, SymmetricBivariatePolynomial
from repro.field.gf import default_field
from repro.field.polynomial import Polynomial
from repro.sharing.vss import VerifiableSecretSharing
from repro.sharing.wps import WeakPolynomialSharing
from repro.sim import EquivocatingBehavior, SynchronousNetwork, WrongValueBehavior

from golden import assert_matches_golden
from protocol_helpers import random_polynomial, run_dealer_protocol

F = default_field()


def _twin_embeddings(degree, secret, seed):
    """The same random embedding built by both implementations (same rng)."""
    q = Polynomial.random(F, degree, constant_term=secret, rng=random.Random(seed))
    scalar = SymmetricBivariatePolynomial.random_embedding(F, q, rng=random.Random(seed + 1))
    batch = BatchSymmetricBivariate.random_embedding(F, q, rng=random.Random(seed + 1))
    return q, scalar, batch


# -- construction and evaluation equivalence -----------------------------------


@settings(max_examples=25, deadline=None)
@given(degree=st.integers(1, 5), secret=st.integers(0, 1000), seed=st.integers(0, 2 ** 31))
def test_property_random_embedding_matches_scalar(degree, secret, seed):
    q, scalar, batch = _twin_embeddings(degree, secret, seed)
    assert batch == scalar
    assert batch.to_scalar() == scalar
    assert BatchSymmetricBivariate.from_scalar(scalar) == batch
    assert batch.secret() == scalar.secret() == F(secret)
    assert batch.zero_row() == scalar.zero_row() == q
    assert batch.is_symmetric()


@settings(max_examples=25, deadline=None)
@given(degree=st.integers(1, 4), seed=st.integers(0, 2 ** 31), x=st.integers(0, 60), y=st.integers(0, 60))
def test_property_evaluate_and_row_match_scalar(degree, seed, x, y):
    _, scalar, batch = _twin_embeddings(degree, 5, seed)
    assert batch.evaluate(x, y) == scalar.evaluate(x, y)
    assert batch.evaluate(x, y) == batch.evaluate(y, x)
    assert batch.row(y) == scalar.row(y)


@settings(max_examples=25, deadline=None)
@given(degree=st.integers(1, 4), seed=st.integers(0, 2 ** 31), count=st.integers(1, 9))
def test_property_rows_at_all_points_match_scalar_rows(degree, seed, count):
    _, scalar, batch = _twin_embeddings(degree, 7, seed)
    points = [int(F.alpha(i)) for i in range(1, count + 1)]
    batch_rows = batch.rows_at_all_points(points)
    scalar_rows = [scalar.row(F.alpha(i)) for i in range(1, count + 1)]
    assert batch_rows == scalar_rows


@settings(max_examples=25, deadline=None)
@given(degree=st.integers(1, 4), seed=st.integers(0, 2 ** 31), nx=st.integers(1, 6), ny=st.integers(1, 6))
def test_property_eval_grid_matches_pairwise_evaluate(degree, seed, nx, ny):
    _, scalar, batch = _twin_embeddings(degree, 9, seed)
    xs = [int(F.alpha(i)) for i in range(1, nx + 1)]
    ys = [int(F.beta(j)) for j in range(1, ny + 1)]
    grid = batch.eval_grid(xs, ys)
    for a, x in enumerate(xs):
        for b, y in enumerate(ys):
            assert F(grid[a][b]) == scalar.evaluate(x, y) == batch.evaluate(x, y)


# -- from_univariate_rows: equivalence and error paths -------------------------


@settings(max_examples=25, deadline=None)
@given(degree=st.integers(1, 4), seed=st.integers(0, 2 ** 31))
def test_property_from_univariate_rows_matches_scalar(degree, seed):
    _, scalar, batch = _twin_embeddings(degree, 3, seed)
    rows = [(F.alpha(i), scalar.row(F.alpha(i))) for i in range(1, degree + 2)]
    rebuilt_scalar = SymmetricBivariatePolynomial.from_univariate_rows(F, rows)
    rebuilt_batch = BatchSymmetricBivariate.from_univariate_rows(F, rows)
    assert rebuilt_batch == rebuilt_scalar == scalar
    assert rebuilt_batch == batch


def test_from_univariate_rows_rejects_inconsistent_rows():
    _, scalar, _ = _twin_embeddings(2, 77, seed=13)
    rows = [(F.alpha(i), scalar.row(F.alpha(i))) for i in range(1, 4)]
    bad = Polynomial(F, [c + 1 for c in rows[1][1].coeffs])
    rows[1] = (rows[1][0], bad)
    with pytest.raises(ValueError):
        BatchSymmetricBivariate.from_univariate_rows(F, rows)


def test_from_univariate_rows_requires_enough_rows():
    _, scalar, _ = _twin_embeddings(3, 1, seed=17)
    rows = [(F.alpha(i), scalar.row(F.alpha(i))) for i in range(1, 3)]
    with pytest.raises(ValueError):
        BatchSymmetricBivariate.from_univariate_rows(F, rows)
    with pytest.raises(ValueError):
        BatchSymmetricBivariate.from_univariate_rows(F, [])


def test_checked_constructor_rejects_asymmetric_and_non_square():
    with pytest.raises(ValueError):
        BatchSymmetricBivariate(F, [[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        BatchSymmetricBivariate(F, [[1, 2], [2]])


def test_trusted_constructor_skips_revalidation():
    """The trusted path is unchecked by design: validation stays at the
    untrusted boundary (dealer input), not on every internal construction."""
    asymmetric = [[F(1), F(2)], [F(3), F(4)]]
    trusted = SymmetricBivariatePolynomial.trusted(F, asymmetric)
    assert not trusted.is_symmetric()
    with pytest.raises(ValueError):
        SymmetricBivariatePolynomial(F, asymmetric)


# -- whole-protocol regressions against the pinned scalar reference runs --------


def _assert_run_matches_golden(cell_id, run):
    """Outputs and transcript, plus every party's verdicts, BA output and
    accepted star (the dealer-facing decisions the bivariate layer feeds)."""
    decisions = {
        pid: (instance._verdicts, instance._ba_output, instance.accepted_star)
        for pid, instance in run.instances.items()
    }
    assert_matches_golden(cell_id, run, extra=decisions)


@pytest.mark.parametrize("cls", [WeakPolynomialSharing, VerifiableSecretSharing])
def test_honest_dealer_batch_and_scalar_runs_identical(cls):
    poly = random_polynomial(1, 42, seed=1)
    run = run_dealer_protocol(cls, n=4, ts=1, ta=0, dealer=1, polynomials=[poly], seed=3)
    _assert_run_matches_golden(f"sharing/{cls.__name__}/n4ts1ta0/honest_dealer", run)
    assert len(run.honest_outputs()) == 4


def test_adversarial_dealer_wps_verdicts_identical():
    """An equivocating dealer must draw exactly the pinned accept/reject
    verdicts (and OK/NOK broadcasts)."""
    poly = random_polynomial(1, 50, seed=14)
    corrupt = {2: EquivocatingBehavior(group_b=[4], tag_predicate=lambda tag: True)}
    run = run_dealer_protocol(
        WeakPolynomialSharing,
        n=4, ts=1, ta=0, dealer=2, polynomials=[poly],
        corrupt=corrupt, seed=15, max_time=20_000.0,
    )
    _assert_run_matches_golden("sharing/WeakPolynomialSharing/n4ts1ta0/equivocating_dealer", run)


def test_lying_party_wps_outputs_identical():
    poly = random_polynomial(1, 11, seed=6)
    run = run_dealer_protocol(
        WeakPolynomialSharing,
        n=5, ts=1, ta=1, dealer=1, polynomials=[poly],
        corrupt={4: WrongValueBehavior(offset=3)}, seed=7,
    )
    _assert_run_matches_golden("sharing/WeakPolynomialSharing/n5ts1ta1/lying_party", run)
    assert len(run.honest_outputs()) == 4


def test_adversarial_dealer_vss_verdicts_identical():
    poly = random_polynomial(1, 60, seed=5)
    corrupt = {2: EquivocatingBehavior(group_b=[4], tag_predicate=lambda tag: True)}
    run = run_dealer_protocol(
        VerifiableSecretSharing,
        n=4, ts=1, ta=0, dealer=2, polynomials=[poly],
        corrupt=corrupt, seed=5, max_time=300_000.0,
    )
    _assert_run_matches_golden("sharing/VerifiableSecretSharing/n4ts1ta0/equivocating_dealer", run)
