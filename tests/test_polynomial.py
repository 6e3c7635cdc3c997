"""Tests for univariate polynomials and Lagrange interpolation."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.field.gf import default_field
from repro.field.polynomial import (
    Polynomial,
    interpolate_at,
    lagrange_coefficients,
    lagrange_interpolate,
)

F = default_field()


def test_construction_strips_trailing_zeros():
    poly = Polynomial(F, [F(1), F(2), F(0), F(0)])
    assert poly.degree == 1
    assert poly.coeffs == [F(1), F(2)]


def test_zero_polynomial():
    zero = Polynomial.zero(F)
    assert zero.is_zero()
    assert zero.degree == 0
    assert zero.evaluate(5) == F(0)


def test_constant_polynomial():
    poly = Polynomial.constant(F, 9)
    assert poly.degree == 0
    assert poly.constant_term() == F(9)


def test_evaluate_horner():
    poly = Polynomial(F, [F(1), F(2), F(3)])  # 1 + 2x + 3x^2
    assert poly(0) == F(1)
    assert poly(1) == F(6)
    assert poly(2) == F(17)
    assert poly.evaluate_many([0, 1, 2]) == [F(1), F(6), F(17)]


def test_random_polynomial_degree_and_constant():
    rng = random.Random(5)
    poly = Polynomial.random(F, 4, constant_term=7, rng=rng)
    assert poly.degree <= 4
    assert poly.constant_term() == F(7)


def test_addition_subtraction_negation():
    p = Polynomial(F, [F(1), F(2)])
    q = Polynomial(F, [F(3), F(0), F(5)])
    assert (p + q).evaluate(2) == p.evaluate(2) + q.evaluate(2)
    assert (p - q).evaluate(3) == p.evaluate(3) - q.evaluate(3)
    assert (-p).evaluate(4) == -(p.evaluate(4))


def test_multiplication_by_scalar_and_polynomial():
    p = Polynomial(F, [F(1), F(2)])
    q = Polynomial(F, [F(3), F(4)])
    assert (p * 3).evaluate(5) == p.evaluate(5) * 3
    assert (3 * p).evaluate(5) == p.evaluate(5) * 3
    product = p * q
    assert product.degree == 2
    assert product.evaluate(7) == p.evaluate(7) * q.evaluate(7)


def test_divmod_roundtrip():
    rng = random.Random(11)
    a = Polynomial.random(F, 5, rng=rng)
    b = Polynomial.random(F, 2, rng=rng)
    quotient, remainder = a.divmod(b)
    assert (quotient * b + remainder).coeffs == a.coeffs
    assert remainder.degree < b.degree or remainder.is_zero()
    assert a // b == quotient
    assert (a % b).coeffs == remainder.coeffs


def test_divmod_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Polynomial(F, [F(1)]).divmod(Polynomial.zero(F))


def test_equality_and_hash():
    assert Polynomial(F, [F(1), F(2)]) == Polynomial(F, [F(1), F(2), F(0)])
    assert Polynomial(F, [F(1)]) != Polynomial(F, [F(2)])
    assert hash(Polynomial(F, [F(1), F(2)])) == hash(Polynomial(F, [F(1), F(2)]))
    assert Polynomial(F, [F(1)]).__eq__(42) is NotImplemented


def test_lagrange_interpolate_exact():
    rng = random.Random(3)
    poly = Polynomial.random(F, 3, rng=rng)
    points = [(F(i), poly.evaluate(i)) for i in range(1, 5)]
    recovered = lagrange_interpolate(F, points)
    assert recovered == poly


def test_lagrange_interpolate_rejects_duplicates():
    with pytest.raises(ValueError):
        lagrange_interpolate(F, [(F(1), F(2)), (F(1), F(3))])
    with pytest.raises(ValueError):
        lagrange_coefficients(F, [F(1), F(1)], F(0))


def test_lagrange_coefficients_sum_to_one():
    xs = [F(1), F(2), F(3)]
    coeffs = lagrange_coefficients(F, xs, F(9))
    # Interpolating the constant-1 polynomial must give 1.
    total = F(0)
    for c in coeffs:
        total = total + c
    assert total == F(1)


def test_interpolate_at_matches_polynomial():
    rng = random.Random(4)
    poly = Polynomial.random(F, 2, rng=rng)
    points = [(F(i), poly.evaluate(i)) for i in (1, 2, 3)]
    assert interpolate_at(F, points, 10) == poly.evaluate(10)
    assert interpolate_at(F, points, 0) == poly.constant_term()


@settings(max_examples=40, deadline=None)
@given(
    coeffs=st.lists(st.integers(0, 10 ** 12), min_size=1, max_size=6),
    x=st.integers(0, 10 ** 12),
)
def test_property_add_mul_consistency(coeffs, x):
    poly = Polynomial(F, [F(c) for c in coeffs])
    double = poly + poly
    assert double.evaluate(x) == poly.evaluate(x) * 2
    squared = poly * poly
    assert squared.evaluate(x) == poly.evaluate(x) * poly.evaluate(x)


@settings(max_examples=40, deadline=None)
@given(
    degree=st.integers(0, 6),
    seed=st.integers(0, 2 ** 31),
)
def test_property_interpolation_roundtrip(degree, seed):
    rng = random.Random(seed)
    poly = Polynomial.random(F, degree, rng=rng)
    points = [(F(i), poly.evaluate(i)) for i in range(1, degree + 2)]
    assert lagrange_interpolate(F, points) == poly


# -- residue storage -------------------------------------------------------------


def test_native_storage_boxes_lazily():
    poly = Polynomial(F, [3, 1, 4])
    assert poly._boxed is None  # no FieldElement built yet
    assert poly.residues == [3, 1, 4]
    assert poly._boxed is None  # residue reads must not box
    boxed = poly.coeffs
    assert boxed == [F(3), F(1), F(4)]
    assert poly.coeffs is boxed  # cached after first touch


def test_from_native_list_and_tuple_strip_trailing_zeros():
    for values in ([7, 0, 5, 0, 0], (7, 0, 5, 0, 0)):
        poly = Polynomial.from_reduced_ints(F, values)
        assert poly.residues == [7, 0, 5]
        assert poly == Polynomial(F, [7, 0, 5])
    assert Polynomial.from_reduced_ints(F, [0, 0, 0]).is_zero()
    assert Polynomial.from_reduced_ints(F, []).is_zero()


def test_from_native_rows_matches_per_row_constructor():
    matrix = [[1, 2, 0], [0, 0, 0], [5, 0, 7], [4, 0, 0]]
    singles = [Polynomial.from_reduced_ints(F, list(row)) for row in matrix]
    batch = Polynomial.from_reduced_rows(F, matrix)
    assert batch == singles
    assert [p.residues for p in batch] == [[1, 2], [0], [5, 0, 7], [4]]


def test_init_same_field_fast_path_and_foreign_field_rejection():
    # Already-boxed elements of the same field pass residues straight through.
    poly = Polynomial(F, [F(11), 22, F(33)])
    assert poly.residues == [11, 22, 33]
    from repro.field.gf import GF

    other = GF(97)
    with pytest.raises(ValueError):
        Polynomial(F, [other(1)])
